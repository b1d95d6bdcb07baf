package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"gis/internal/types"
)

// instance is one parameterised analytic query with its expected
// answer, computed in plain Go from the generated rows.
type instance struct {
	sql    string
	params []types.Value
	// Exactly one of rows (a small computed result, compared as a
	// multiset within floatTol) and fp (a result of stored values only,
	// compared as an exact multiset fingerprint) is set.
	rows [][]cell
	fp   *fingerprint
	// descCol >= 0 also checks that the rows are sorted descending on
	// that column (ORDER BY ... DESC).
	descCol int
}

// analyticClasses are the rotation's query classes, in rotation order.
var analyticClasses = []string{"filter", "filter_agg", "group_by", "join_group", "topk", "wide", "kv", "doc", "file"}

// instancesPerClass bounds the expected-answer precomputation.
const instancesPerClass = 6

// analyticWL: 1 client running a fixed rotation of query classes whose
// cost is dominated by per-row work.
type analyticWL struct {
	insts [][]*instance
}

func (w *analyticWL) classes() []string       { return analyticClasses }
func (w *analyticWL) clients() int            { return 1 }
func (w *analyticWL) unit() int               { return len(analyticClasses) }
func (w *analyticWL) deadline() time.Duration { return 10 * time.Second }

func (w *analyticWL) next(_, i int, rng *rand.Rand, o *op) {
	o.class = i % len(analyticClasses)
	insts := w.insts[o.class]
	o.inst = insts[rng.Intn(len(insts))]
	o.sql, o.params = o.inst.sql, o.inst.params
}

func (w *analyticWL) begin(*op)   {}
func (w *analyticWL) unknown(*op) {}

func (w *analyticWL) verify(o *op, rows []types.Row, _ int64) error {
	in := o.inst
	if in.descCol >= 0 {
		for i := 1; i < len(rows); i++ {
			if rows[i][in.descCol].Compare(rows[i-1][in.descCol]) > 0 {
				return fmt.Errorf("rows %d and %d out of DESC order", i-1, i)
			}
		}
	}
	if in.fp != nil {
		if got := rowsFingerprint(rows); got != *in.fp {
			return fmt.Errorf("result multiset differs: %d rows, want %d", got.n, in.fp.n)
		}
		return nil
	}
	return compareMultiset(rows, in.rows)
}

func (w *analyticWL) final(context.Context, *executor) error { return nil }

func fpOf(n int, row func(i int) (uint64, bool)) *fingerprint {
	var f fingerprint
	for i := 0; i < n; i++ {
		if h, ok := row(i); ok {
			f.add(h)
		}
	}
	return &f
}

// newAnalyticWL draws instancesPerClass parameter sets per class from
// seed and computes each expected answer.
func newAnalyticWL(d *analyticData, seed int64) *analyticWL {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	w := &analyticWL{insts: make([][]*instance, len(analyticClasses))}
	add := func(class int, in *instance) { w.insts[class] = append(w.insts[class], in) }
	iv, sv := types.NewInt, types.NewString
	for k := 0; k < instancesPerClass; k++ {
		cust := int64(rng.Intn(nCustomers))
		add(0, &instance{
			sql:    "SELECT oid, cust_id, amount FROM orders WHERE cust_id = ?",
			params: []types.Value{iv(cust)}, descCol: -1,
			fp: fpOf(len(d.orders), func(i int) (uint64, bool) {
				o := d.orders[i]
				return hashFloat(hashInt(hashInt(fnvOffset, o.oid), o.custID), o.amount), o.custID == cust
			}),
		})

		// Day windows have a fixed width, so every instance of a class
		// touches the same share of the rows.
		region, day := regions[rng.Intn(len(regions))], int64(rng.Intn(nDays-90))
		var cnt int64
		var sum float64
		for _, o := range d.orders {
			if o.region == region && o.day >= day && o.day < day+90 {
				cnt++
				sum += o.amount
			}
		}
		add(1, &instance{
			sql:    "SELECT COUNT(*), SUM(amount) FROM orders WHERE region = ? AND day >= ? AND day < ?",
			params: []types.Value{sv(region), iv(day), iv(day + 90)}, descCol: -1,
			rows: [][]cell{{cnt, sum}},
		})

		from := int64(rng.Intn(nDays - 180))
		add(2, &instance{
			sql:    "SELECT region, COUNT(*), SUM(amount) FROM orders WHERE day >= ? AND day < ? GROUP BY region",
			params: []types.Value{iv(from), iv(from + 180)}, descCol: -1,
			rows: groupRows(len(d.orders), func(i int) (string, float64, bool) {
				o := d.orders[i]
				return o.region, o.amount, o.day >= from && o.day < from+180
			}),
		})

		country := countries[rng.Intn(len(countries))]
		add(3, &instance{
			sql: "SELECT c.segment, COUNT(*), SUM(o.amount) FROM orders o JOIN customers c ON o.cust_id = c.id " +
				"WHERE c.country = ? GROUP BY c.segment",
			params: []types.Value{sv(country)}, descCol: -1,
			rows: groupRows(len(d.orders), func(i int) (string, float64, bool) {
				o := d.orders[i]
				c := d.customers[o.custID]
				return c.segment, o.amount, c.country == country
			}),
		})

		lo := int64(rng.Intn(nProducts - 500))
		add(6, &instance{
			sql:    "SELECT pid, name, price FROM products WHERE pid >= ? AND pid < ?",
			params: []types.Value{iv(lo), iv(lo + 500)}, descCol: -1,
			fp: fpOf(len(d.products), func(i int) (uint64, bool) {
				p := d.products[i]
				return hashFloat(hashStr(hashInt(fnvOffset, p.pid), p.name), p.price), p.pid >= lo && p.pid < lo+500
			}),
		})

		status, prio := statuses[rng.Intn(len(statuses))], int64(1+rng.Intn(5))
		add(7, &instance{
			sql:    "SELECT tid, cust_id, priority FROM tickets WHERE status = ? AND priority = ?",
			params: []types.Value{sv(status), iv(prio)}, descCol: -1,
			fp: fpOf(len(d.tickets), func(i int) (uint64, bool) {
				t := d.tickets[i]
				return hashInt(hashInt(hashInt(fnvOffset, t.tid), t.custID), t.priority), t.status == status && t.priority == prio
			}),
		})

		shipRegion := regions[rng.Intn(len(regions))]
		add(8, &instance{
			sql:    "SELECT carrier, COUNT(*), SUM(cost) FROM shipments WHERE region = ? GROUP BY carrier",
			params: []types.Value{sv(shipRegion)}, descCol: -1,
			rows: groupRows(len(d.shipments), func(i int) (string, float64, bool) {
				s := d.shipments[i]
				return s.carrier, s.cost, s.region == shipRegion
			}),
		})
	}
	top := append([]order(nil), d.orders...)
	sort.Slice(top, func(a, b int) bool { return top[a].amount > top[b].amount })
	top = top[:10]
	add(4, &instance{
		sql:     "SELECT oid, amount FROM orders ORDER BY amount DESC LIMIT 10",
		descCol: 1,
		fp: fpOf(len(top), func(i int) (uint64, bool) {
			return hashFloat(hashInt(fnvOffset, top[i].oid), top[i].amount), true
		}),
	})
	add(5, &instance{
		sql:     "SELECT oid, cust_id, pid, amount, region, day FROM orders",
		descCol: -1,
		fp: fpOf(len(d.orders), func(i int) (uint64, bool) {
			o := d.orders[i]
			h := hashFloat(hashInt(hashInt(hashInt(fnvOffset, o.oid), o.custID), o.pid), o.amount)
			return hashInt(hashStr(h, o.region), o.day), true
		}),
	})
	return w
}

// groupRows computes (key, COUNT(*), SUM(x)) over the rows that pass.
func groupRows(n int, row func(i int) (string, float64, bool)) [][]cell {
	type agg struct {
		n   int64
		sum float64
	}
	groups := map[string]*agg{}
	var keys []string
	for i := 0; i < n; i++ {
		k, x, ok := row(i)
		if !ok {
			continue
		}
		g := groups[k]
		if g == nil {
			g = &agg{}
			groups[k] = g
			keys = append(keys, k)
		}
		g.n++
		g.sum += x
	}
	out := make([][]cell, 0, len(keys))
	for _, k := range keys {
		out = append(out, []cell{k, groups[k].n, groups[k].sum})
	}
	return out
}
