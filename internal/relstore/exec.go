package relstore

import (
	"context"
	"fmt"
	"slices"

	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// Execute implements source.Source. The store evaluates the full query
// IR locally: index-accelerated filter, projection, grouping/aggregation,
// sort, and limit. Results are materialized under the read lock and
// streamed lock-free afterwards (snapshot semantics per query).
func (s *Store) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.tableLocked(q.Table)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, c := range q.Columns {
		if c < 0 || c >= t.schema.Len() {
			return nil, fmt.Errorf("relstore %s: projected column %d out of range", s.name, c)
		}
	}
	agg := q.HasAggregation()
	if !agg {
		width := len(q.Columns)
		if q.Columns == nil {
			width = t.schema.Len()
		}
		for _, k := range q.OrderBy {
			if k.Col < 0 || k.Col >= width {
				return nil, fmt.Errorf("relstore %s: order column %d out of range", s.name, k.Col)
			}
		}
	}

	// ORDER BY ... LIMIT k without aggregation keeps only the k best
	// table rows while scanning, and projects just those.
	top := topK{keys: q.OrderBy, cols: q.Columns, k: q.Limit}
	topFirst := !agg && len(q.OrderBy) > 0 && q.Limit >= 0
	limitEarly := q.Limit >= 0 && !agg && len(q.OrderBy) == 0

	cand, all := t.candidateRows(q.Filter)
	n := len(cand)
	if all {
		n = len(t.rows)
	}
	var out []types.Row
	for i := 0; i < n; i++ {
		pos := i
		if !all {
			pos = cand[i]
		}
		r, ok, err := t.match(pos, q.Filter)
		if err != nil {
			return nil, fmt.Errorf("relstore %s: %w", s.name, err)
		}
		if !ok {
			continue
		}
		if topFirst {
			top.push(r)
			continue
		}
		out = append(out, r)
		if limitEarly && int64(len(out)) >= q.Limit {
			break
		}
	}
	if topFirst {
		out = top.sorted()
	}

	if agg {
		out, err = aggregate(out, q.GroupBy, q.Aggs)
		if err != nil {
			return nil, fmt.Errorf("relstore %s: %w", s.name, err)
		}
	} else if q.Columns != nil {
		proj := make([]types.Row, len(out))
		for i, r := range out {
			nr := make(types.Row, len(q.Columns))
			for j, c := range q.Columns {
				nr[j] = r[c]
			}
			proj[i] = nr
		}
		out = proj
	}
	if len(q.OrderBy) > 0 && !topFirst {
		// out is this query's own slice (its rows alias committed rows,
		// which sorting does not touch), so it is ordered in place.
		if q.Limit >= 0 {
			top = topK{keys: q.OrderBy, k: q.Limit}
			for _, r := range out {
				top.push(r)
			}
			out = top.sorted()
		} else {
			source.SortRows(out, q.OrderBy)
		}
	}
	if q.Limit >= 0 && int64(len(out)) > q.Limit {
		out = out[:q.Limit]
	}
	return source.SliceIter(out), nil
}

// match returns the row at pos and whether it is live and satisfies
// filter (nil matches every live row).
func (t *table) match(pos int, filter expr.Expr) (types.Row, bool, error) {
	r := t.rows[pos]
	if r == nil {
		return nil, false, nil
	}
	if filter == nil {
		return r, true, nil
	}
	ok, err := expr.EvalBool(filter, r)
	return r, ok, err
}

// candidateRows is the store's access-path chooser, shared by reads and
// writes. It returns the positions, in ascending order, of a superset
// of the live rows that satisfy filter, or all=true when no index
// applies and every row must be tested. Callers re-check the full
// filter on every candidate, so a path only has to be a superset, and
// ascending positions give the same rows in the same order as a scan.
// Conjuncts are considered in this order:
//
//  1. col = const, or col IN (consts) as shipped by the semijoin
//     strategy, on a hash-indexed column: the first such conjunct
//     probes its hash buckets;
//  2. otherwise, every col <, <=, >, >= const conjunct on key[0] (either
//     side constant, flipped with BinOp.Commutes), with a non-NULL
//     constant of the column's own kind, intersected into one key range
//     and answered from the ordered index by binary search;
//  3. otherwise, a full scan.
//
// The returned slice may alias an index; callers must not modify it and,
// before writing, must copy it.
func (t *table) candidateRows(filter expr.Expr) ([]int, bool) {
	var lo, hi keyBound
	for _, c := range expr.Conjuncts(filter) {
		switch n := c.(type) {
		case *expr.Binary:
			op := n.Op
			col, colOK := n.L.(*expr.ColRef)
			val, valOK := n.R.(*expr.Const)
			if !colOK || !valOK {
				col, colOK = n.R.(*expr.ColRef)
				val, valOK = n.L.(*expr.Const)
				op, _ = op.Commutes()
			}
			if !colOK || !valOK || col.Index < 0 {
				continue
			}
			switch op {
			case expr.OpEq:
				if idx, indexed := t.hashIdx[col.Index]; indexed {
					return idx[val.Val.Hash(0)], false
				}
			case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
				if col.Index != t.ord.col || val.Val.Kind() != t.schema.Columns[col.Index].Type {
					continue
				}
				if op == expr.OpGt || op == expr.OpGe {
					lo.tighten(val.Val, op == expr.OpGe, false)
				} else {
					hi.tighten(val.Val, op == expr.OpLe, true)
				}
			default:
				// No index answers other comparisons.
			}
		case *expr.InList:
			if n.Negate {
				continue
			}
			col, colOK := n.E.(*expr.ColRef)
			if !colOK || col.Index < 0 {
				continue
			}
			idx, indexed := t.hashIdx[col.Index]
			if !indexed {
				continue
			}
			// Union the probed buckets, then sort and deduplicate
			// (duplicate IN constants or hash collisions would
			// otherwise emit rows twice).
			var out []int
			allConst := true
			for _, le := range n.List {
				k, isConst := le.(*expr.Const)
				if !isConst {
					allConst = false
					break
				}
				out = append(out, idx[k.Val.Hash(0)]...)
			}
			if allConst {
				slices.Sort(out)
				return slices.Compact(out), false
			}
		default:
			// Other conjuncts cannot use an index.
		}
	}
	if !lo.set && !hi.set {
		return nil, true
	}
	cand := t.ordRangeLocked(&lo, &hi)
	if !slices.IsSorted(cand) {
		cand = slices.Clone(cand)
		slices.Sort(cand)
	}
	return cand, false
}

// topK selects the first k rows of a stable sort by keys without sorting
// every row: a max-heap of the k best rows seen so far, ranked by the
// sort keys and then by arrival, so ties keep their input order exactly
// as source.SortRows followed by truncation does. When cols is set the
// keys index the projection cols (the rows are unprojected table rows).
type topK struct {
	keys []source.OrderSpec
	cols []int
	k    int64
	rows []types.Row
	seq  []int
	n    int
}

// push offers the next input row.
func (h *topK) push(r types.Row) {
	seq := h.n
	h.n++
	if int64(len(h.rows)) < h.k {
		h.rows = append(h.rows, r)
		h.seq = append(h.seq, seq)
		for i := len(h.rows) - 1; i > 0; {
			p := (i - 1) / 2
			if !h.less(p, i) {
				break
			}
			h.swap(p, i)
			i = p
		}
		return
	}
	// A later arrival only displaces the worst kept row when its keys
	// are strictly better.
	if len(h.rows) == 0 || compareKeys(r, h.rows[0], h.keys, h.cols) >= 0 {
		return
	}
	h.rows[0], h.seq[0] = r, seq
	h.down(0, len(h.rows))
}

// sorted returns the kept rows in order, consuming the heap.
func (h *topK) sorted() []types.Row {
	for end := len(h.rows) - 1; end > 0; end-- {
		h.swap(0, end)
		h.down(0, end)
	}
	return h.rows
}

// less ranks entry i before entry j.
func (h *topK) less(i, j int) bool {
	if c := compareKeys(h.rows[i], h.rows[j], h.keys, h.cols); c != 0 {
		return c < 0
	}
	return h.seq[i] < h.seq[j]
}

func (h *topK) swap(i, j int) {
	h.rows[i], h.rows[j] = h.rows[j], h.rows[i]
	h.seq[i], h.seq[j] = h.seq[j], h.seq[i]
}

// down restores the max-heap property below i within the first n entries.
func (h *topK) down(i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(c, c+1) {
			c++
		}
		if !h.less(i, c) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// compareKeys orders rows a and b by keys, as source.SortRows does;
// key columns are looked up through cols when it is set.
func compareKeys(a, b types.Row, keys []source.OrderSpec, cols []int) int {
	for _, k := range keys {
		col := k.Col
		if cols != nil {
			col = cols[col]
		}
		c := a[col].Compare(b[col])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// aggregate evaluates grouping and aggregates over materialized rows.
func aggregate(rows []types.Row, groupBy []int, aggs []source.AggSpec) ([]types.Row, error) {
	type group struct {
		key  types.Row
		accs []expr.Accumulator
	}
	groups := make(map[uint64][]*group)
	var order []*group
	for _, r := range rows {
		key := make(types.Row, len(groupBy))
		for i, g := range groupBy {
			key[i] = r[g]
		}
		h := key.Hash()
		var grp *group
		for _, g := range groups[h] {
			if g.key.Equal(key) {
				grp = g
				break
			}
		}
		if grp == nil {
			grp = &group{key: key, accs: make([]expr.Accumulator, len(aggs))}
			for i, a := range aggs {
				grp.accs[i] = expr.NewAccumulator(a.Kind, a.Star, a.Distinct)
			}
			groups[h] = append(groups[h], grp)
			order = append(order, grp)
		}
		for i, a := range aggs {
			v := types.NewInt(1)
			if !a.Star {
				v = r[a.Col]
			}
			if err := grp.accs[i].Add(v); err != nil {
				return nil, err
			}
		}
	}
	if len(order) == 0 && len(groupBy) == 0 {
		row := make(types.Row, len(aggs))
		for i, a := range aggs {
			row[i] = expr.NewAccumulator(a.Kind, a.Star, a.Distinct).Result()
		}
		return []types.Row{row}, nil
	}
	out := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := make(types.Row, 0, len(groupBy)+len(aggs))
		row = append(row, g.key...)
		for _, acc := range g.accs {
			row = append(row, acc.Result())
		}
		out = append(out, row)
	}
	return out, nil
}
