package relstore

import (
	"cmp"
	"slices"
	"sort"

	"gis/internal/types"
)

// ordIndex is the ordered index on a table's first key column: the
// positions of the table's rows sorted by that column (ties by
// position), one int per row. It answers range conjuncts by binary
// search (see (*table).candidateRows).
//
// It is maintained only under the store write lock, and every write
// statement leaves it settled before it returns (settleLocked), so
// Execute, which runs under the read lock beside other readers, only
// ever reads it. Between those points:
//
//   - an insert whose key is not below every key appended so far is
//     appended in place; any other insert marks the index stale;
//   - a delete leaves its entry as a tombstone (the row slot is nil),
//     which probes step over; too many tombstones trigger a rebuild;
//   - an update that changes the key, and an abort that restores a
//     deleted row, mark the index stale.
//
// A stale index is rebuilt from the live rows by settleLocked.
type ordIndex struct {
	col   int // indexed column, -1 when the table has no key
	pos   []int
	last  types.Value // greatest key appended since the last rebuild
	dead  int         // entries pointing at tombstones
	stale bool
}

// ordAppendLocked records a freshly inserted row at pos.
func (t *table) ordAppendLocked(pos int, r types.Row) {
	o := &t.ord
	if o.col < 0 || o.stale {
		return
	}
	k := r[o.col]
	if len(o.pos) > 0 && k.Compare(o.last) < 0 {
		o.stale = true
		return
	}
	o.pos = append(o.pos, pos)
	o.last = k
}

// settleLocked rebuilds the ordered index when a write left it stale or
// more than an eighth tombstones, which bounds how far a probe can walk
// over tombstones. Every write statement calls it before it returns.
func (t *table) settleLocked() {
	o := &t.ord
	if o.col < 0 || (!o.stale && o.dead*8 <= len(o.pos)) {
		return
	}
	p := o.pos[:0]
	for pos, r := range t.rows {
		if r != nil {
			p = append(p, pos)
		}
	}
	col := o.col
	slices.SortFunc(p, func(a, b int) int {
		if c := t.rows[a][col].Compare(t.rows[b][col]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	o.pos, o.dead, o.stale = p, 0, false
	if len(p) > 0 {
		o.last = t.rows[p[len(p)-1]][col]
	}
}

// keyBound is one end of a key range: unset, or the constant val,
// inclusive or not.
type keyBound struct {
	val  types.Value
	incl bool
	set  bool
}

// tighten narrows the bound to v (incl) when that is stricter; upper
// selects which end the bound is.
func (b *keyBound) tighten(v types.Value, incl, upper bool) {
	if b.set {
		c := v.Compare(b.val)
		if upper {
			c = -c
		}
		if c < 0 || (c == 0 && (incl || !b.incl)) {
			return
		}
	}
	*b = keyBound{val: v, incl: incl, set: true}
}

// ordRangeLocked returns the index entries whose keys lie between lo
// and hi, in key order, tombstones included. The caller holds mu (read
// or write) and the index is settled.
func (t *table) ordRangeLocked(lo, hi *keyBound) []int {
	start, end := 0, len(t.ord.pos)
	if lo.set {
		start = t.ordSearch(lo, false)
	}
	if hi.set {
		end = t.ordSearch(hi, true)
	}
	if start >= end {
		return nil
	}
	return t.ord.pos[start:end]
}

// ordSearch returns the first index entry past bound b: the first whose
// key exceeds b's value, or reaches it when b is an inclusive lower
// bound or an exclusive upper bound. Tombstones take the key of the
// next live entry, which keeps the predicate monotone.
func (t *table) ordSearch(b *keyBound, upper bool) int {
	pos, col := t.ord.pos, t.ord.col
	return sort.Search(len(pos), func(i int) bool {
		for ; i < len(pos); i++ {
			if r := t.rows[pos[i]]; r != nil {
				c := r[col].Compare(b.val)
				return c > 0 || (c == 0 && b.incl != upper)
			}
		}
		return true
	})
}
