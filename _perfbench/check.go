package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"gis/internal/types"
)

// floatTol is the tolerance for every float the engine computes (sums
// and averages, whose rounding depends on the order the mediator and
// the stores add in): |a-b| <= floatTol * max(1, |a|, |b|). Stored
// floats that the engine only moves are compared bit for bit.
const floatTol = 1e-9

func floatsEqual(a, b float64) bool {
	return math.Abs(a-b) <= floatTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// Row hashing for order-independent multiset fingerprints. The engine
// side hashes types.Values; the plain-Go side hashes the generated
// fields with the same per-kind encoding.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func hashInt(h uint64, v int64) uint64     { return hashU64(hashU64(h, 'i'), uint64(v)) }
func hashFloat(h uint64, v float64) uint64 { return hashU64(hashU64(h, 'f'), math.Float64bits(v)) }

func hashStr(h uint64, s string) uint64 {
	h = hashU64(h, 's')
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return hashU64(h, uint64(len(s)))
}

func hashValue(h uint64, v types.Value) uint64 {
	switch v.Kind() {
	case types.KindInt:
		return hashInt(h, v.Int())
	case types.KindFloat:
		return hashFloat(h, v.Float())
	case types.KindString:
		return hashStr(h, v.Str())
	default:
		// The benchmark's tables hold only ints, floats and strings;
		// any other kind hashes by its rendering so a mismatch shows.
		return hashStr(hashU64(h, uint64(v.Kind())), v.String())
	}
}

// mix is the splitmix64 finalizer; it spreads row hashes before they
// are summed, so the fingerprint does not inherit FNV's weak high bits.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fingerprint identifies a multiset of rows independently of order.
type fingerprint struct {
	n        int
	sum, xor uint64
}

func (f *fingerprint) add(rowHash uint64) {
	f.n++
	m := mix(rowHash)
	f.sum += m
	f.xor ^= mix(m)
}

func rowsFingerprint(rows []types.Row) fingerprint {
	var f fingerprint
	for _, r := range rows {
		h := uint64(fnvOffset)
		for _, v := range r {
			h = hashValue(h, v)
		}
		f.add(h)
	}
	return f
}

// cell is one expected value: int64, float64 or string.
type cell = any

func cellOf(v types.Value) cell {
	switch v.Kind() {
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindString:
		return v.Str()
	case types.KindNull:
		return nil
	default:
		return v.String()
	}
}

// sortKey renders the exact (non-float) cells of a row; floats are left
// out so rows whose floats differ within tolerance still sort together.
func sortKey(r []cell) string {
	var b strings.Builder
	for _, c := range r {
		switch x := c.(type) {
		case int64:
			b.WriteString(strconv.FormatInt(x, 10))
		case string:
			b.WriteString(x)
		case float64:
			continue
		default:
			b.WriteString("null")
		}
		b.WriteByte(0)
	}
	return b.String()
}

func cellsEqual(a, b cell) bool {
	fa, aok := a.(float64)
	fb, bok := b.(float64)
	if aok && bok {
		return floatsEqual(fa, fb)
	}
	return a == b
}

// compareMultiset checks that got holds exactly the rows of want, in any
// order, with computed floats compared within floatTol.
func compareMultiset(got []types.Row, want [][]cell) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	g := make([][]cell, len(got))
	for i, r := range got {
		g[i] = make([]cell, len(r))
		for j, v := range r {
			g[i][j] = cellOf(v)
		}
	}
	w := append([][]cell(nil), want...)
	sortCells(g)
	sortCells(w)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row width %d, want %d", len(g[i]), len(w[i]))
		}
		for j := range g[i] {
			if !cellsEqual(g[i][j], w[i][j]) {
				return fmt.Errorf("row %v, want %v", g[i], w[i])
			}
		}
	}
	return nil
}

func sortCells(rows [][]cell) {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = sortKey(r)
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([][]cell, len(rows))
	for i, k := range idx {
		out[i] = rows[k]
	}
	copy(rows, out)
}
