package relstore

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// Access-path equivalence: every index path must answer Execute, Update
// and Delete exactly as a naive full scan would — the same rows, in the
// same order, with the same affected counts. The reference below keeps
// the live rows in insertion order and evaluates every statement over
// all of them in plain Go.

var accSchema = types.NewSchema(
	types.Column{Name: "id", Type: types.KindInt},
	types.Column{Name: "cat", Type: types.KindString},
	types.Column{Name: "val", Type: types.KindFloat},
	types.Column{Name: "n", Type: types.KindInt, Nullable: true},
)

var accCats = []string{"a", "b", "c", "d"}

// accRow builds one row; n is NULL for every seventh id.
func accRow(id int64, rng *rand.Rand) types.Row {
	n := types.NewInt(int64(rng.Intn(5)))
	if id%7 == 0 {
		n = types.Null
	}
	return types.Row{
		types.NewInt(id),
		types.NewString(accCats[rng.Intn(len(accCats))]),
		types.NewFloat(float64(rng.Intn(20)) / 2),
		n,
	}
}

// accPair drives a store (key id, hash index on cat) and the reference
// through the same statements and compares every answer.
type accPair struct {
	t   *testing.T
	s   *Store
	ref []types.Row // live rows in insertion order
}

// newAccPair loads rows in two batches: the first out of key order, so
// the ordered index starts from a rebuild; the second appended in order.
func newAccPair(t *testing.T, seed int64, nrows int) (*accPair, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := &accPair{t: t, s: New("acc")}
	if err := p.s.CreateTable("items", accSchema, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.s.CreateIndex("items", 1); err != nil {
		t.Fatal(err)
	}
	ids := rng.Perm(nrows / 2)
	var first []types.Row
	for _, id := range ids {
		first = append(first, accRow(int64(id)*2, rng))
	}
	p.insert(first...)
	var second []types.Row
	for i := nrows / 2; i < nrows; i++ {
		second = append(second, accRow(int64(i)*2, rng))
	}
	p.insert(second...)
	return p, rng
}

// hasKey reports whether a live row has key id (updates may move keys
// anywhere; inserts must not collide with them).
func (p *accPair) hasKey(id int64) bool {
	for _, r := range p.ref {
		if !r[0].IsNull() && r[0].Int() == id {
			return true
		}
	}
	return false
}

func (p *accPair) bind(e expr.Expr) expr.Expr {
	p.t.Helper()
	if e == nil {
		return nil
	}
	b, err := expr.Bind(e, accSchema)
	if err != nil {
		p.t.Fatal(err)
	}
	return b
}

func (p *accPair) insert(rows ...types.Row) {
	p.t.Helper()
	if _, err := p.s.Insert(ctx, "items", rows); err != nil {
		p.t.Fatal(err)
	}
	p.ref = append(p.ref, rows...)
	p.checkIndexes()
}

// refMatch reports whether r satisfies filter.
func (p *accPair) refMatch(filter expr.Expr, r types.Row) bool {
	p.t.Helper()
	if filter == nil {
		return true
	}
	ok, err := expr.EvalBool(filter, r)
	if err != nil {
		p.t.Fatal(err)
	}
	return ok
}

// refQuery answers q by scanning every reference row: filter, then
// aggregate or project, then a stable sort and the limit.
func (p *accPair) refQuery(q *source.Query) []types.Row {
	p.t.Helper()
	var out []types.Row
	for _, r := range p.ref {
		if p.refMatch(q.Filter, r) {
			out = append(out, r)
		}
	}
	if q.HasAggregation() {
		var err error
		if out, err = aggregate(out, q.GroupBy, q.Aggs); err != nil {
			p.t.Fatal(err)
		}
	} else if q.Columns != nil {
		for i, r := range out {
			nr := make(types.Row, len(q.Columns))
			for j, c := range q.Columns {
				nr[j] = r[c]
			}
			out[i] = nr
		}
	}
	source.SortRows(out, q.OrderBy)
	if q.Limit >= 0 && int64(len(out)) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// query compares Execute with the reference, row for row.
func (p *accPair) query(q *source.Query) {
	p.t.Helper()
	q.Filter = p.bind(q.Filter)
	got := runQuery(p.t, p.s, q)
	want := p.refQuery(q)
	if !sameRows(got, want) {
		p.t.Fatalf("%s:\n got  %d rows %v\n want %d rows %v", q, len(got), got, len(want), want)
	}
}

// update runs UPDATE items SET set WHERE filter on both sides.
func (p *accPair) update(filter expr.Expr, set ...source.SetClause) {
	p.t.Helper()
	p.updateVia(p.s, filter, set...)
}

// updateVia runs the update through w (the store or an open
// transaction) and applies it to the reference.
func (p *accPair) updateVia(w source.Writer, filter expr.Expr, set ...source.SetClause) {
	p.t.Helper()
	filter = p.bind(filter)
	for i := range set {
		set[i].Value = p.bind(set[i].Value)
	}
	got, err := w.Update(ctx, "items", filter, set)
	if err != nil {
		p.t.Fatal(err)
	}
	var want int64
	for i, r := range p.ref {
		if !p.refMatch(filter, r) {
			continue
		}
		nr := r.Clone()
		for _, sc := range set {
			v, err := sc.Value.Eval(r)
			if err != nil {
				p.t.Fatal(err)
			}
			if nr[sc.Col], err = coerceForColumn(v, accSchema.Columns[sc.Col].Type); err != nil {
				p.t.Fatal(err)
			}
		}
		p.ref[i] = nr
		want++
	}
	if got != want {
		p.t.Fatalf("UPDATE WHERE %s: %d rows affected, reference %d", filter, got, want)
	}
	p.checkAfter(w)
}

// checkAfter checks the indexes after a write through w.
func (p *accPair) checkAfter(w source.Writer) {
	p.t.Helper()
	if _, inTx := w.(*Tx); inTx {
		p.checkIndexesLocked()
	} else {
		p.checkIndexes()
	}
}

// delete runs DELETE FROM items WHERE filter on both sides.
func (p *accPair) delete(filter expr.Expr) {
	p.t.Helper()
	p.deleteVia(p.s, filter)
}

func (p *accPair) deleteVia(w source.Writer, filter expr.Expr) {
	p.t.Helper()
	filter = p.bind(filter)
	got, err := w.Delete(ctx, "items", filter)
	if err != nil {
		p.t.Fatal(err)
	}
	kept := p.ref[:0:0]
	for _, r := range p.ref {
		if !p.refMatch(filter, r) {
			kept = append(kept, r)
		}
	}
	if want := int64(len(p.ref) - len(kept)); got != want {
		p.t.Fatalf("DELETE WHERE %s: %d rows affected, reference %d", filter, got, want)
	}
	p.ref = kept
	p.checkAfter(w)
}

// checkIndexes verifies the index invariants every reader relies on:
// each hash bucket is sorted and holds every live row with that value,
// and the ordered index is settled, lists every live row once, and
// keeps its live entries in key order.
func (p *accPair) checkIndexes() {
	p.t.Helper()
	p.s.mu.RLock()
	defer p.s.mu.RUnlock()
	p.checkIndexesLocked()
}

// checkIndexesLocked is checkIndexes for a caller that holds the store
// lock, such as an open transaction that has written.
func (p *accPair) checkIndexesLocked() {
	p.t.Helper()
	tb := p.s.tables["items"]
	for col, idx := range tb.hashIdx {
		for h, b := range idx {
			if !slices.IsSorted(b) {
				p.t.Fatalf("hash bucket %d/%x not sorted: %v", col, h, b)
			}
		}
		for pos, r := range tb.rows {
			if r != nil {
				if _, ok := slices.BinarySearch(idx[r[col].Hash(0)], pos); !ok {
					p.t.Fatalf("row %d missing from hash index on column %d", pos, col)
				}
			}
		}
	}
	o := &tb.ord
	if o.stale {
		p.t.Fatal("ordered index left stale by a finished statement")
	}
	seen := map[int]bool{}
	var prev types.Row
	for _, pos := range o.pos {
		if seen[pos] {
			p.t.Fatalf("position %d twice in the ordered index", pos)
		}
		seen[pos] = true
		r := tb.rows[pos]
		if r == nil {
			continue
		}
		if prev != nil && prev[o.col].Compare(r[o.col]) > 0 {
			p.t.Fatalf("ordered index out of order: %v before %v", prev, r)
		}
		prev = r
	}
	for pos, r := range tb.rows {
		if r != nil && !seen[pos] {
			p.t.Fatalf("live row %d missing from the ordered index", pos)
		}
	}
	if tb.live != len(p.ref) {
		p.t.Fatalf("store holds %d live rows, reference %d", tb.live, len(p.ref))
	}
}

// sameRows compares row lists value for value, kinds included.
func sameRows(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].Kind() != b[i][j].Kind() || !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// Expression shorthands.
func acol(name string) expr.Expr { return expr.NewColRef("", name) }
func aint(v int64) expr.Expr     { return expr.NewConst(types.NewInt(v)) }
func aflt(v float64) expr.Expr   { return expr.NewConst(types.NewFloat(v)) }
func astr(v string) expr.Expr    { return expr.NewConst(types.NewString(v)) }
func anull() expr.Expr           { return expr.NewConst(types.Null) }
func abin(op expr.BinOp, l, r expr.Expr) expr.Expr {
	return expr.NewBinary(op, l, r)
}
func aand(es ...expr.Expr) expr.Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = expr.NewBinary(expr.OpAnd, out, e)
	}
	return out
}
func ain(e expr.Expr, list ...expr.Expr) expr.Expr { return &expr.InList{E: e, List: list} }

func scanWhere(filter expr.Expr) *source.Query {
	q := source.NewScan("items")
	q.Filter = filter
	return q
}

func TestAccessPathEquivalenceCases(t *testing.T) {
	id := acol("id")
	queries := []expr.Expr{
		nil,
		abin(expr.OpEq, id, aint(40)),
		abin(expr.OpGe, id, aint(40)),
		abin(expr.OpLt, id, aint(40)),
		aand(abin(expr.OpGe, id, aint(40)), abin(expr.OpLt, id, aint(140))),
		aand(abin(expr.OpGt, id, aint(40)), abin(expr.OpLe, id, aint(140)), abin(expr.OpEq, acol("cat"), astr("b"))),
		// Flipped comparisons.
		abin(expr.OpLt, aint(100), id),
		abin(expr.OpGe, aint(100), id),
		aand(abin(expr.OpLe, aint(20), id), abin(expr.OpGt, aint(60), id)),
		// Int constants against Float constants, both ways round.
		abin(expr.OpGt, id, aflt(40.5)),
		abin(expr.OpGe, id, aflt(40)),
		abin(expr.OpLt, aflt(99.5), id),
		abin(expr.OpEq, id, aflt(40)),
		abin(expr.OpGt, acol("val"), aint(5)),
		aand(abin(expr.OpGe, id, aint(10)), abin(expr.OpLt, id, aflt(30.5))),
		// NULL constants.
		abin(expr.OpGt, id, anull()),
		abin(expr.OpEq, id, anull()),
		abin(expr.OpLe, anull(), id),
		aand(abin(expr.OpGe, id, aint(10)), abin(expr.OpLt, id, anull())),
		abin(expr.OpEq, acol("n"), anull()),
		// Contradictory and empty bounds.
		aand(abin(expr.OpGt, id, aint(10)), abin(expr.OpLt, id, aint(5))),
		aand(abin(expr.OpGe, id, aint(10)), abin(expr.OpLt, id, aint(10))),
		aand(abin(expr.OpGe, id, aint(10)), abin(expr.OpLe, id, aint(10))),
		aand(abin(expr.OpGt, id, aint(10)), abin(expr.OpGe, id, aint(10)), abin(expr.OpLt, id, aint(12))),
		abin(expr.OpGt, id, aint(1_000_000)),
		abin(expr.OpLt, id, aint(-1)),
		// Hash probes.
		abin(expr.OpEq, acol("cat"), astr("c")),
		ain(id, aint(4), aint(8), aint(8), aint(1_000_000), aflt(12)),
		ain(acol("cat"), astr("a"), astr("d")),
		aand(abin(expr.OpGe, id, aint(100)), ain(acol("cat"), astr("a"))),
	}
	check := func(p *accPair) {
		for _, f := range queries {
			p.query(scanWhere(f))
		}
		// Top-k with many ties (four categories), ascending and
		// descending, with and without projection, and over aggregates.
		for _, limit := range []int64{0, 1, 5, 37, 1000} {
			for _, desc := range []bool{false, true} {
				q := scanWhere(abin(expr.OpGe, id, aint(30)))
				q.OrderBy, q.Limit = []source.OrderSpec{{Col: 1, Desc: desc}}, limit
				p.query(q)
				q = scanWhere(nil)
				q.Columns = []int{2, 1}
				q.OrderBy, q.Limit = []source.OrderSpec{{Col: 1, Desc: desc}, {Col: 0}}, limit
				p.query(q)
				q = scanWhere(nil)
				q.GroupBy = []int{2}
				q.Aggs = []source.AggSpec{{Kind: expr.AggCount, Col: -1, Star: true}}
				q.OrderBy, q.Limit = []source.OrderSpec{{Col: 1, Desc: desc}}, limit
				p.query(q)
			}
		}
		q := scanWhere(abin(expr.OpLt, id, aint(300)))
		q.Limit = 7
		p.query(q)
	}
	set := func(col int, e expr.Expr) source.SetClause { return source.SetClause{Col: col, Value: e} }

	cases := []struct {
		name  string
		setup func(p *accPair)
	}{
		{"loaded", func(*accPair) {}},
		{"tombstones", func(p *accPair) {
			p.delete(aand(abin(expr.OpGe, id, aint(30)), abin(expr.OpLt, id, aint(90))))
			p.delete(abin(expr.OpEq, acol("cat"), astr("a")))
			p.delete(ain(id, aint(200), aint(202)))
		}},
		{"few tombstones", func(p *accPair) {
			// Under an eighth of the rows, so the ordered index keeps
			// them as tombstones, at both ends and inside ranges.
			p.delete(ain(id, aint(0), aint(2), aint(398), aint(396), aint(100), aint(140)))
			p.delete(aand(abin(expr.OpGe, id, aint(50)), abin(expr.OpLe, id, aint(56))))
		}},
		{"key-changing updates", func(p *accPair) {
			p.update(abin(expr.OpGe, id, aint(150)), set(0, abin(expr.OpAdd, id, aint(1))))
			p.update(abin(expr.OpLt, aint(100), id), set(0, abin(expr.OpSub, id, aint(3))))
			p.update(abin(expr.OpEq, id, aint(4)), set(0, aint(1_000_001)))
			p.insert(accRow(-5, rand.New(rand.NewSource(1))), accRow(2_000_000, rand.New(rand.NewSource(2))))
		}},
		{"hash-indexed column updates", func(p *accPair) {
			p.update(abin(expr.OpEq, acol("cat"), astr("a")), set(1, astr("z")))
			p.update(ain(acol("cat"), astr("b"), astr("z")), set(1, astr("a")))
			p.update(abin(expr.OpGe, id, aint(100)), set(1, astr("c")), set(2, abin(expr.OpAdd, acol("val"), aint(1))))
		}},
		{"abort restores both indexes", func(p *accPair) {
			before := slices.Clone(p.ref)
			tx, err := p.s.BeginTx(ctx)
			if err != nil {
				p.t.Fatal(err)
			}
			p.updateVia(tx, abin(expr.OpGe, id, aint(50)), set(0, abin(expr.OpAdd, id, aint(1))), set(1, astr("q")))
			p.deleteVia(tx, aand(abin(expr.OpGe, id, aint(20)), abin(expr.OpLt, id, aint(60))))
			row := accRow(-9, rand.New(rand.NewSource(3)))
			if _, err := tx.Insert(ctx, "items", []types.Row{row}); err != nil {
				p.t.Fatal(err)
			}
			p.ref = append(p.ref, row)
			p.updateVia(tx, abin(expr.OpEq, acol("cat"), astr("q")), set(1, astr("b")))
			if err := tx.Abort(ctx); err != nil {
				p.t.Fatal(err)
			}
			p.ref = before
			p.checkIndexes()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, _ := newAccPair(t, 7, 200)
			c.setup(p)
			check(p)
		})
	}
}

// TestCandidateRowsPaths pins the access path chosen for each conjunct
// shape and the exact candidates an index returns: hash probes for
// equality and IN, the tightest key range from the ordered index, and a
// full scan when the constant is NULL or of another kind.
func TestCandidateRowsPaths(t *testing.T) {
	p, _ := newAccPair(t, 3, 40) // ids 0, 2, ..., 78
	p.delete(ain(acol("id"), aint(10), aint(74), aint(76), aint(78)))
	if p.s.tables["items"].ord.dead != 4 {
		t.Fatalf("ordered index holds %d tombstones, want 4", p.s.tables["items"].ord.dead)
	}
	id := acol("id")
	cases := []struct {
		filter expr.Expr
		scan   bool
		ids    []int64 // live candidates' keys, ascending
	}{
		{abin(expr.OpEq, id, aint(12)), false, []int64{12}},
		{ain(id, aint(14), aint(12), aint(14)), false, []int64{12, 14}},
		{aand(abin(expr.OpGt, id, aint(4)), abin(expr.OpLe, id, aint(14))), false, []int64{6, 8, 12, 14}},
		{aand(abin(expr.OpGe, id, aint(4)), abin(expr.OpGt, id, aint(4)), abin(expr.OpLt, id, aint(9))), false, []int64{6, 8}},
		{aand(abin(expr.OpGt, id, aint(4)), abin(expr.OpGe, id, aint(4)), abin(expr.OpLt, id, aint(9))), false, []int64{6, 8}},
		{aand(abin(expr.OpLt, id, aint(8)), abin(expr.OpLe, id, aint(8))), false, []int64{0, 2, 4, 6}},
		{aand(abin(expr.OpLe, id, aint(8)), abin(expr.OpLt, id, aint(8)), abin(expr.OpGe, aint(4), id)), false, []int64{0, 2, 4}},
		{abin(expr.OpLt, aint(66), id), false, []int64{68, 70, 72}},
		{abin(expr.OpGe, id, aint(72)), false, []int64{72}},
		{aand(abin(expr.OpGt, id, aint(10)), abin(expr.OpLt, id, aint(5))), false, nil},
		{aand(abin(expr.OpGt, id, aint(70)), abin(expr.OpEq, acol("val"), aint(1))), false, []int64{72}},
		{abin(expr.OpGt, id, aflt(70)), true, nil},
		{abin(expr.OpGt, id, anull()), true, nil},
		{abin(expr.OpGt, acol("n"), aint(3)), true, nil},
		{nil, true, nil},
	}
	tb := p.s.tables["items"]
	for _, c := range cases {
		cand, all := tb.candidateRows(p.bind(c.filter))
		if all != c.scan {
			t.Errorf("%v: full scan = %v, want %v", c.filter, all, c.scan)
			continue
		}
		if !slices.IsSorted(cand) {
			t.Errorf("%v: candidates not in position order: %v", c.filter, cand)
		}
		var ids []int64
		for _, pos := range cand {
			if r := tb.rows[pos]; r != nil {
				ids = append(ids, r[0].Int())
			}
		}
		slices.Sort(ids)
		if !slices.Equal(ids, c.ids) {
			t.Errorf("%v: candidate keys %v, want %v", c.filter, ids, c.ids)
		}
	}
}

// randFilter builds a random conjunction of one to three atoms over the
// access-path shapes: key comparisons either way round with Int, Float
// and NULL constants, hash probes, IN lists and unindexed comparisons.
func randFilter(rng *rand.Rand) expr.Expr {
	if rng.Intn(10) == 0 {
		return nil
	}
	atoms := make([]expr.Expr, 1+rng.Intn(3))
	ops := []expr.BinOp{expr.OpEq, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
	for i := range atoms {
		op := ops[rng.Intn(len(ops))]
		var c expr.Expr
		switch rng.Intn(8) {
		case 0:
			c = aflt(float64(rng.Intn(440)-20) / 2)
		case 1:
			c = anull()
		default:
			c = aint(int64(rng.Intn(440) - 20))
		}
		switch rng.Intn(6) {
		case 0, 1:
			atoms[i] = abin(op, acol("id"), c)
		case 2:
			if flip, ok := op.Commutes(); ok {
				atoms[i] = abin(flip, c, acol("id"))
			}
		case 3:
			atoms[i] = abin(expr.OpEq, acol("cat"), astr(accCats[rng.Intn(len(accCats))]))
		case 4:
			atoms[i] = ain(acol("id"), aint(int64(rng.Intn(400))), aint(int64(rng.Intn(400))), c)
		default:
			atoms[i] = abin(op, acol("val"), aint(int64(rng.Intn(10))))
		}
	}
	return aand(atoms...)
}

func TestAccessPathEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		p, rng := newAccPair(t, seed, 200)
		nextID := int64(1_000_000)
		for step := 0; step < 150; step++ {
			switch k := rng.Intn(10); {
			case k < 5:
				q := scanWhere(randFilter(rng))
				if rng.Intn(3) == 0 {
					q.Columns = []int{3, 1, 0}
				}
				if rng.Intn(2) == 0 {
					q.OrderBy = []source.OrderSpec{{Col: 1, Desc: rng.Intn(2) == 0}}
				}
				if rng.Intn(2) == 0 {
					q.Limit = int64(rng.Intn(30))
				}
				p.query(q)
			case k < 7:
				sets := [][]source.SetClause{
					{{Col: 2, Value: abin(expr.OpAdd, acol("val"), aflt(0.5))}},
					{{Col: 1, Value: astr(accCats[rng.Intn(len(accCats))])}},
					{{Col: 0, Value: abin(expr.OpAdd, acol("id"), aint(int64(rng.Intn(7)-3)))}},
					{{Col: 3, Value: anull()}, {Col: 1, Value: astr("z")}},
				}
				p.update(randFilter(rng), sets[rng.Intn(len(sets))]...)
			case k < 8:
				p.delete(randFilter(rng))
			case k < 9:
				rows := make([]types.Row, 1+rng.Intn(4))
				for i := range rows {
					// Mostly ascending fresh keys, sometimes one below
					// every existing key, which forces a rebuild.
					nextID += int64(1 + rng.Intn(3))
					id := nextID
					if rng.Intn(4) == 0 {
						id = -nextID
					}
					for p.hasKey(id) {
						id += 1_000_000
					}
					rows[i] = accRow(id, rng)
				}
				p.insert(rows...)
			default:
				before := slices.Clone(p.ref)
				tx, err := p.s.BeginTx(ctx)
				if err != nil {
					t.Fatal(err)
				}
				p.updateVia(tx, randFilter(rng), source.SetClause{Col: 0, Value: abin(expr.OpMul, acol("id"), aint(3))})
				p.deleteVia(tx, randFilter(rng))
				if rng.Intn(2) == 0 {
					if err := tx.Abort(ctx); err != nil {
						t.Fatal(err)
					}
					p.ref = before
				} else if err := tx.Commit(ctx); err != nil {
					t.Fatal(err)
				}
				p.checkIndexes()
			}
		}
	}
}

// TestConcurrentRangeReadersAndIndexedWriters runs key-range readers
// beside updaters and inserters that move index entries: value updates
// through the hash index, key-changing updates through the ordered
// index, and out-of-order inserts that force rebuilds. The readers keep
// reading until every writer is done, so under -race any index write
// made under the read lock meets a concurrent reader; they also check
// that every row they get lies in their range.
func TestConcurrentRangeReadersAndIndexedWriters(t *testing.T) {
	s := New("race")
	if err := s.CreateTable("items", accSchema, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("items", 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var rows []types.Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, accRow(int64(i), rng))
	}
	if _, err := s.Insert(ctx, "items", rows); err != nil {
		t.Fatal(err)
	}
	bind := func(e expr.Expr) expr.Expr {
		b, err := expr.Bind(e, accSchema)
		if err != nil {
			panic(err)
		}
		return b
	}
	rangeQuery := func(lo int64) error {
		q := scanWhere(bind(aand(abin(expr.OpGe, acol("id"), aint(lo)), abin(expr.OpLt, acol("id"), aint(lo+50)))))
		it, err := s.Execute(ctx, q)
		if err != nil {
			return err
		}
		got, err := source.Drain(it)
		if err != nil {
			return err
		}
		for _, r := range got {
			if v := r[0].Int(); v < lo || v >= lo+50 {
				return fmt.Errorf("range [%d,%d) returned id %d", lo, lo+50, v)
			}
		}
		return nil
	}
	writers := []func(i int) error{
		func(i int) error { // hash-indexed column
			_, err := s.Update(ctx, "items", bind(abin(expr.OpEq, acol("id"), aint(int64(i*37%2000)))),
				[]source.SetClause{{Col: 1, Value: bind(astr(accCats[i%len(accCats)]))}})
			return err
		},
		func(i int) error { // keys out of the readers' ranges and back
			lo := int64(i * 53 % 2000)
			_, err := s.Update(ctx, "items", bind(aand(abin(expr.OpGe, acol("id"), aint(lo)), abin(expr.OpLt, acol("id"), aint(lo+3)))),
				[]source.SetClause{{Col: 0, Value: bind(abin(expr.OpAdd, acol("id"), aint(100_000)))}})
			if err == nil {
				_, err = s.Update(ctx, "items", bind(abin(expr.OpGe, acol("id"), aint(100_000))),
					[]source.SetClause{{Col: 0, Value: bind(abin(expr.OpSub, acol("id"), aint(100_000)))}})
			}
			return err
		},
		func(i int) error { // below every key: forces a rebuild
			_, err := s.Insert(ctx, "items", []types.Row{accRow(-int64(i)-1, rand.New(rand.NewSource(int64(i))))})
			return err
		},
	}
	var writersWG, readersWG sync.WaitGroup
	done := make(chan struct{})
	const readers = 3
	// One slot per goroutine: each sends at most one error and stops.
	errs := make(chan error, readers+len(writers))
	for g := 0; g < readers; g++ {
		readersWG.Add(1)
		go func(g int) {
			defer readersWG.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := rangeQuery(int64((g*131 + i*17) % 2000)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for _, w := range writers {
		writersWG.Add(1)
		go func(w func(int) error) {
			defer writersWG.Done()
			for i := 0; i < 60; i++ {
				if err := w(i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(done)
	readersWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
