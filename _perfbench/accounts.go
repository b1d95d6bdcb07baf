package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gis/internal/types"
)

// acctModel tracks, in plain Go, every balance the accounts table may
// legally show. Writes in oltp touch only keys their client owns
// (id % clients), so each key has one writer and a linear history:
// hist[id][j-1] is the balance after the key's j-th write. A read may
// see any history entry between the writes acknowledged when it was
// sent and those sent before it returned.
type acctModel struct {
	accts []account

	mu      sync.Mutex
	hist    [][]float64
	acked   []int32
	pending []bool
	// A key whose write failed has an unknown balance; reads of it are
	// not checked and the final check allows the write either way.
	unknown []bool
	// ackedSum and maybeSum are the per-key increments acknowledged and
	// sent but not acknowledged, for the end-of-run checks.
	ackedSum []float64
	maybeSum []float64
}

func newAcctModel(accts []account) *acctModel {
	n := len(accts)
	return &acctModel{
		accts: accts, hist: make([][]float64, n), acked: make([]int32, n),
		pending: make([]bool, n), unknown: make([]bool, n),
		ackedSum: make([]float64, n), maybeSum: make([]float64, n),
	}
}

// value returns key id's balance after its j-th write. Caller holds mu.
func (m *acctModel) value(id int64, j int32) float64 {
	if j == 0 {
		return m.accts[id].balance
	}
	return m.hist[id][j-1]
}

func (m *acctModel) snapshot(o *op) {
	o.snap = make([]int32, o.hi-o.lo)
	m.mu.Lock()
	for id := o.lo; id < o.hi; id++ {
		o.snap[id-o.lo] = m.acked[id]
	}
	m.mu.Unlock()
}

// checkRead validates rows (id, owner, balance) returned for keys
// [o.lo, o.hi) against the history window of each key.
func (m *acctModel) checkRead(o *op, rows []types.Row) error {
	if int64(len(rows)) != o.hi-o.lo {
		return fmt.Errorf("got %d rows for ids [%d,%d)", len(rows), o.lo, o.hi)
	}
	seen := make([]bool, o.hi-o.lo)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range rows {
		if len(r) != 3 || r[0].Kind() != types.KindInt || r[2].Kind() != types.KindFloat {
			return fmt.Errorf("malformed row %v", r)
		}
		id := r[0].Int()
		if id < o.lo || id >= o.hi || seen[id-o.lo] {
			return fmt.Errorf("unexpected or duplicate id %d", id)
		}
		seen[id-o.lo] = true
		if got := r[1].Str(); got != m.accts[id].owner {
			return fmt.Errorf("id %d owner %q, want %q", id, got, m.accts[id].owner)
		}
		if m.unknown[id] {
			continue
		}
		lo, hi := o.snap[id-o.lo], m.acked[id]
		if m.pending[id] {
			hi++
		}
		bal := r[2].Float()
		ok := false
		for j := lo; j <= hi && !ok; j++ {
			ok = floatsEqual(bal, m.value(id, j))
		}
		if !ok {
			return fmt.Errorf("id %d balance %v matches no write %d..%d of its history", id, bal, lo, hi)
		}
	}
	return nil
}

// beginWrite appends the value the write will produce (single writer
// per key, so the history stays linear).
func (m *acctModel) beginWrite(id int64, delta float64) {
	m.mu.Lock()
	j := m.acked[id]
	m.hist[id] = append(m.hist[id][:j], m.value(id, j)+delta)
	m.pending[id] = true
	m.mu.Unlock()
}

func (m *acctModel) ackWrite(id int64, delta float64) {
	m.mu.Lock()
	m.acked[id]++
	m.pending[id] = false
	m.ackedSum[id] += delta
	m.mu.Unlock()
}

// rangeOutcome records a range write's increment on every key in it.
func (m *acctModel) rangeOutcome(lo, hi int64, delta float64, acked bool) {
	m.mu.Lock()
	for id := lo; id < hi; id++ {
		if acked {
			m.ackedSum[id] += delta
		} else {
			m.maybeSum[id] += delta
			m.unknown[id] = true
		}
	}
	m.mu.Unlock()
}

func (m *acctModel) failWrite(id int64, delta float64) {
	m.mu.Lock()
	m.unknown[id] = true
	m.maybeSum[id] += delta
	m.mu.Unlock()
}

// finalCheck compares the table's final contents with the model:
// every balance, and SUM(balance) against the initial sum plus every
// acknowledged increment (plus at most the unacknowledged ones, which
// are all positive).
func (m *acctModel) finalCheck(ctx context.Context, x *executor) error {
	res, err := runFinal(ctx, x, "SELECT SUM(balance) FROM accounts")
	if err != nil {
		return err
	}
	m.mu.Lock()
	var base, maybe float64
	for id, a := range m.accts {
		base += a.balance + m.ackedSum[id]
		maybe += m.maybeSum[id]
	}
	m.mu.Unlock()
	if len(res) != 1 || len(res[0]) != 1 || res[0][0].Kind() != types.KindFloat {
		return fmt.Errorf("conservation: malformed SUM result %v", res)
	}
	if sum := res[0][0].Float(); sum < base-floatTol*base || sum > base+maybe+floatTol*base {
		return fmt.Errorf("conservation: SUM(balance) = %v, want %v (+ up to %v unacknowledged)", sum, base, maybe)
	}
	rows, err := runFinal(ctx, x, "SELECT id, balance FROM accounts")
	if err != nil {
		return err
	}
	if len(rows) != len(m.accts) {
		return fmt.Errorf("final scan: %d rows, want %d", len(rows), len(m.accts))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range rows {
		id := r[0].Int()
		want := m.accts[id].balance + m.ackedSum[id]
		if got := r[1].Float(); got < want || got > want+m.maybeSum[id] || (m.maybeSum[id] == 0 && !floatsEqual(got, want)) {
			return fmt.Errorf("final scan: id %d balance %v, want %v (+ up to %v)", id, got, want, m.maybeSum[id])
		}
	}
	return nil
}

// runFinal runs an end-of-run query under a deadline on a worker of
// its own. It reports a federation that cannot answer within it (a
// wedged one) as errUnverifiable rather than hanging.
func runFinal(ctx context.Context, x *executor, q string) ([]types.Row, error) {
	w := startWorker(nil, x)
	res, ok := w.do(ctx, &op{sql: q}, 10*time.Second)
	if !ok {
		return nil, fmt.Errorf("%w: %s did not return", errUnverifiable, q)
	}
	w.stop()
	if res.err != nil {
		return nil, fmt.Errorf("%w: %s: %v", errUnverifiable, q, res.err)
	}
	return res.rows, nil
}

// Statement classes of the accounts workloads.
const (
	clLookup = iota
	clRange
	clWrite
)

const (
	lookupSQL   = "SELECT id, owner, balance FROM accounts WHERE id = ?"
	rangeSQL    = "SELECT id, owner, balance FROM accounts WHERE id >= ? AND id < ?"
	writeSQL    = "UPDATE accounts SET balance = balance + ? WHERE id = ?"
	rangeWidth  = 100
	txnWriteSQL = "UPDATE accounts SET balance = balance + ? WHERE id >= ? AND id < ?"
)

// oltpWL: 2 clients, each running shuffled cycles of 7 point lookups,
// 1 100-key range read and 2 single-row autocommit UPDATEs, each routed
// to one participant. Whole cycles keep the class shares exact, so
// allocation counts do not move with the seed.
type oltpWL struct {
	m     *acctModel
	cycle [2][]int // per client: the current cycle's class order
}

var oltpCycle = []int{clLookup, clLookup, clLookup, clLookup, clLookup, clLookup, clLookup, clRange, clWrite, clWrite}

func (w *oltpWL) classes() []string       { return []string{"lookup", "range", "write"} }
func (w *oltpWL) clients() int            { return len(w.cycle) }
func (w *oltpWL) unit() int               { return len(oltpCycle) }
func (w *oltpWL) deadline() time.Duration { return 2 * time.Second }

func (w *oltpWL) next(c, i int, rng *rand.Rand, o *op) {
	if i%len(oltpCycle) == 0 {
		w.cycle[c] = append(w.cycle[c][:0], oltpCycle...)
		rng.Shuffle(len(oltpCycle), func(a, b int) { w.cycle[c][a], w.cycle[c][b] = w.cycle[c][b], w.cycle[c][a] })
	}
	n := int64(len(w.m.accts))
	switch w.cycle[c][i%len(oltpCycle)] {
	case clLookup:
		o.class, o.sql = clLookup, lookupSQL
		o.lo = rng.Int63n(n)
		o.hi = o.lo + 1
		o.params = []types.Value{types.NewInt(o.lo)}
	case clRange:
		o.class, o.sql = clRange, rangeSQL
		o.lo = rng.Int63n(n - rangeWidth + 1)
		o.hi = o.lo + rangeWidth
		o.params = []types.Value{types.NewInt(o.lo), types.NewInt(o.hi)}
	default:
		cl := int64(w.clients())
		o.class, o.sql, o.write = clWrite, writeSQL, true
		o.id = rng.Int63n(n/cl)*cl + int64(c)
		o.delta = float64(1 + rng.Intn(100))
		o.params = []types.Value{types.NewFloat(o.delta), types.NewInt(o.id)}
	}
}

func (w *oltpWL) begin(o *op) {
	if o.write {
		w.m.beginWrite(o.id, o.delta)
		return
	}
	w.m.snapshot(o)
}

func (w *oltpWL) verify(o *op, rows []types.Row, n int64) error {
	if o.write {
		if n != 1 {
			return fmt.Errorf("UPDATE of id %d affected %d rows", o.id, n)
		}
		w.m.ackWrite(o.id, o.delta)
		return nil
	}
	return w.m.checkRead(o, rows)
}

func (w *oltpWL) unknown(o *op) {
	if o.write {
		w.m.failWrite(o.id, o.delta)
	}
}

func (w *oltpWL) final(ctx context.Context, x *executor) error { return w.m.finalCheck(ctx, x) }

// txnWL: 2 clients; every statement is an UPDATE over a short key range
// that straddles a partition boundary, so it writes to two participants
// under two-phase commit.
type txnWL struct {
	m *acctModel
}

func (w *txnWL) classes() []string       { return []string{"write"} }
func (w *txnWL) clients() int            { return 2 }
func (w *txnWL) unit() int               { return 1 }
func (w *txnWL) deadline() time.Duration { return 2 * time.Second }

func (w *txnWL) next(_, _ int, rng *rand.Rand, o *op) {
	per := int64(len(w.m.accts) / nBanks)
	b := per * int64(1+rng.Intn(nBanks-1))
	o.class, o.sql, o.write = 0, txnWriteSQL, true
	o.lo = b - 1 - int64(rng.Intn(8))
	o.hi = b + 1 + int64(rng.Intn(8))
	o.delta = float64(1 + rng.Intn(100))
	o.params = []types.Value{types.NewFloat(o.delta), types.NewInt(o.lo), types.NewInt(o.hi)}
}

func (w *txnWL) begin(*op) {}

func (w *txnWL) verify(o *op, _ []types.Row, n int64) error {
	if n != o.hi-o.lo {
		return fmt.Errorf("UPDATE of ids [%d,%d) affected %d rows", o.lo, o.hi, n)
	}
	w.m.rangeOutcome(o.lo, o.hi, o.delta, true)
	return nil
}

func (w *txnWL) unknown(o *op) { w.m.rangeOutcome(o.lo, o.hi, o.delta, false) }

func (w *txnWL) final(ctx context.Context, x *executor) error { return w.m.finalCheck(ctx, x) }
