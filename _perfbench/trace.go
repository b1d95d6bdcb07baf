package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gis/internal/core"
	"gis/internal/exec"
	"gis/internal/expr"
	"gis/internal/plan"
	"gis/internal/source"
	"gis/internal/sql"
	"gis/internal/stats"
	"gis/internal/types"
	"gis/internal/wire"
)

// The tracer records spans from outside the program: around the public
// calls the benchmark makes into each layer, and around every call the
// program makes into the sources on both sides of the wire. Spans stay
// in memory until the run ends.

type layer uint8

const (
	lStmt layer = iota
	lParse
	lBind
	lOptimize
	lExec
	lCoreWrite
	lFetch
	lWriteCall
	lTxnBegin
	lTxnWrite
	lTxnPrepare
	lTxnCommit
	lTxnAbort
	lRelstore
	lKvstore
	lDocstore
	lFilestore
	lRelstoreWrite
	lKvstoreWrite
	lDocstoreWrite
	nLayers
)

var layerNames = [nLayers]string{
	"stmt", "sql.parse", "plan.bind", "plan.optimize", "exec", "core.write",
	"wire.fetch", "wire.write_call", "txn.begin", "txn.tx_write", "txn.prepare", "txn.commit", "txn.abort",
	"relstore.execute", "kvstore.execute", "docstore.execute", "filestore.execute",
	"relstore.write", "kvstore.write", "docstore.write",
}

// writeLayer maps a store's execute layer to its write layer.
var writeLayer = map[layer]layer{lRelstore: lRelstoreWrite, lKvstore: lKvstoreWrite, lDocstore: lDocstoreWrite}

// span is one recorded interval. Times are nanoseconds since the
// tracer started. busy is the time spent inside the layer's calls:
// end-start for a single call, less for a span covering a result
// stream whose rows were pulled by several calls. Server-side spans
// have stmt -1: with concurrent clients a store call cannot be tied to
// the statement that caused it from outside the program.
type span struct {
	id, parent, stmt int64
	layer            layer
	class            int // statement class, on root spans
	start, end       int64
	busy, rows       int64
}

// totals accumulates per-layer busy time and rows.
type totals struct {
	busy, rows [nLayers]int64
}

type tracer struct {
	classes []string // statement class names, for root spans
	on      atomic.Bool
	t0      time.Time
	ids     atomic.Int64
	stmts   atomic.Int64

	mu     sync.Mutex
	spans  []span
	tot    totals
	acct   accounting
	sample []types.Row // result rows for the codec measurement
}

// accounting sums the traced statements' decomposition:
// stmt = residual + parse + bind + optimize + exec self + core.write
// self + wire union, where the wire union is the time at least one
// client-side source call of the statement was in flight.
type accounting struct {
	stmts                                          int64
	stmtNs, parseNs, bindNs, optNs                 int64
	execNs, execSelfNs, coreWriteNs, coreWriteSelf int64
	unionNs, residualNs                            int64
	frags, resultRows, fetches, firstRowNs         int64
}

const sampleRows = 4096

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) record(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.tot.busy[s.layer] += s.busy
	tr.tot.rows[s.layer] += s.rows
	tr.mu.Unlock()
}

// stmtTrace is the per-statement state the source wrappers find in the
// context. It tracks the union of the statement's in-flight client-side
// source calls, which is what the calling layer's self time excludes.
type stmtTrace struct {
	tr     *tracer
	idx    int64
	parent int64 // span the statement's source calls hang under

	mu       sync.Mutex
	active   int
	since    int64
	union    int64
	fetches  int64
	firstRow int64
}

type stmtKey struct{}

func stmtFrom(ctx context.Context) *stmtTrace {
	st, _ := ctx.Value(stmtKey{}).(*stmtTrace)
	return st
}

func (s *stmtTrace) enter() int64 {
	t := s.tr.now()
	s.mu.Lock()
	if s.active == 0 {
		s.since = t
	}
	s.active++
	s.mu.Unlock()
	return t
}

func (s *stmtTrace) exit() int64 {
	t := s.tr.now()
	s.mu.Lock()
	s.active--
	if s.active == 0 {
		s.union += t - s.since
	}
	s.mu.Unlock()
	return t
}

// call records one client-side source call as a span of layer l.
func (s *stmtTrace) call(l layer, start, end int64) {
	s.tr.record(span{id: s.tr.ids.Add(1), parent: s.parent, stmt: s.idx, layer: l, start: start, end: end, busy: end - start})
}

// unionNs returns the statement's wire union so far.
func (s *stmtTrace) unionNs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.union
}

// run executes one statement with spans. SELECTs go through the same
// public calls core.Engine.runSelect makes (sql.Parse, plan.Builder,
// plan.Optimize, exec.Collect); writes go through Engine.Exec.
func (tr *tracer) run(ctx context.Context, eng *core.Engine, o *op) ([]types.Row, int64, error) {
	st := &stmtTrace{tr: tr, idx: tr.stmts.Add(1)}
	root := tr.ids.Add(1)
	ctx = context.WithValue(ctx, stmtKey{}, st)
	var a accounting
	start := tr.now()
	var rows []types.Row
	var n int64
	var err error
	if o.write {
		id := tr.ids.Add(1)
		st.parent = id
		s := tr.now()
		n, err = eng.Exec(ctx, o.sql, o.params...)
		e := tr.now()
		tr.record(span{id: id, parent: root, stmt: st.idx, layer: lCoreWrite, start: s, end: e, busy: e - s, rows: n})
		a.coreWriteNs = e - s
		a.coreWriteSelf = e - s - st.unionNs()
	} else {
		rows, err = tr.runSelect(ctx, st, root, eng, o, &a)
	}
	end := tr.now()
	tr.record(span{id: root, parent: -1, stmt: st.idx, layer: lStmt, class: o.class, start: start, end: end, busy: end - start, rows: int64(len(rows))})
	if err != nil {
		return rows, n, err
	}
	a.stmts = 1
	a.stmtNs = end - start
	st.mu.Lock()
	a.unionNs = st.union
	a.fetches, a.firstRowNs = st.fetches, st.firstRow
	st.mu.Unlock()
	a.residualNs = a.stmtNs - a.parseNs - a.bindNs - a.optNs - a.execNs - a.coreWriteNs
	a.resultRows = int64(len(rows))
	tr.mu.Lock()
	tr.acct.add(&a)
	if len(tr.sample) < sampleRows {
		k := min(len(rows), 64, sampleRows-len(tr.sample))
		tr.sample = append(tr.sample, rows[:k]...)
	}
	tr.mu.Unlock()
	return rows, n, nil
}

func (a *accounting) add(b *accounting) {
	a.stmts += b.stmts
	a.stmtNs += b.stmtNs
	a.parseNs += b.parseNs
	a.bindNs += b.bindNs
	a.optNs += b.optNs
	a.execNs += b.execNs
	a.execSelfNs += b.execSelfNs
	a.coreWriteNs += b.coreWriteNs
	a.coreWriteSelf += b.coreWriteSelf
	a.unionNs += b.unionNs
	a.residualNs += b.residualNs
	a.frags += b.frags
	a.resultRows += b.resultRows
	a.fetches += b.fetches
	a.firstRowNs += b.firstRowNs
}

func (tr *tracer) runSelect(ctx context.Context, st *stmtTrace, root int64, eng *core.Engine, o *op, a *accounting) ([]types.Row, error) {
	cat := eng.Catalog()
	child := func(l layer, fn func() error) (int64, error) {
		s := tr.now()
		err := fn()
		e := tr.now()
		tr.record(span{id: tr.ids.Add(1), parent: root, stmt: st.idx, layer: l, start: s, end: e, busy: e - s})
		return e - s, err
	}
	var stmt sql.Statement
	var err error
	var d int64
	if d, err = child(lParse, func() error {
		stmt, err = sql.Parse(o.sql, o.params...)
		return err
	}); err != nil {
		return nil, err
	}
	a.parseNs = d
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", o.sql)
	}
	var logical, phys plan.Node
	if d, err = child(lBind, func() error {
		logical, err = plan.NewBuilder(cat).BuildSelect(sel)
		return err
	}); err != nil {
		return nil, err
	}
	a.bindNs = d
	if d, err = child(lOptimize, func() error {
		phys, err = plan.Optimize(ctx, logical, cat, eng.PlanOptions())
		return err
	}); err != nil {
		return nil, err
	}
	a.optNs = d
	a.frags = countFragments(phys)
	var rows []types.Row
	id := tr.ids.Add(1)
	st.parent = id
	s := tr.now()
	rows, err = exec.Collect(ctx, phys)
	e := tr.now()
	tr.record(span{id: id, parent: root, stmt: st.idx, layer: lExec, start: s, end: e, busy: e - s, rows: int64(len(rows))})
	a.execNs = e - s
	a.execSelfNs = e - s - st.unionNs()
	return rows, err
}

func countFragments(n plan.Node) int64 {
	if _, ok := n.(*plan.FragScan); ok {
		return 1
	}
	var k int64
	for _, c := range n.Children() {
		k += countFragments(c)
	}
	return k
}

// ---- mediator-side wrappers (the wire.Client the catalog holds) ----

// clientSrc embeds the wire client, so it forwards every method and
// optional interface the client has (source.Writer,
// source.Transactional, the Stats provider), and overrides the calls
// it times. Calls outside a traced statement pass straight through.
type clientSrc struct {
	*wire.Client
}

func (c *clientSrc) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	st := stmtFrom(ctx)
	if st == nil {
		return c.Client.Execute(ctx, q)
	}
	start := st.enter()
	it, err := c.Client.Execute(ctx, q)
	end := st.exit()
	if err != nil {
		st.call(lFetch, start, end)
		return nil, err
	}
	return &fetchIter{in: it, st: st, start: start, busy: end - start, first: true}, nil
}

// fetchIter times the mediator's pulls from one result stream.
type fetchIter struct {
	in          source.RowIter
	st          *stmtTrace
	start, busy int64
	rows        int64
	first, done bool
}

func (f *fetchIter) Next() (types.Row, error) {
	t := f.st.enter()
	r, err := f.in.Next()
	e := f.st.exit()
	f.busy += e - t
	if f.first {
		f.first = false
		f.st.mu.Lock()
		f.st.fetches++
		f.st.firstRow += e - f.start
		f.st.mu.Unlock()
	}
	if err == nil {
		f.rows++
	}
	return r, err
}

func (f *fetchIter) Close() error {
	t := f.st.enter()
	err := f.in.Close()
	e := f.st.exit()
	if !f.done {
		f.done = true
		f.busy += e - t
		f.st.tr.record(span{id: f.st.tr.ids.Add(1), parent: f.st.parent, stmt: f.st.idx, layer: lFetch,
			start: f.start, end: e, busy: f.busy, rows: f.rows})
	}
	return err
}

// timed runs one client-side call of layer l inside statement st.
func timed[T any](st *stmtTrace, l layer, fn func() (T, error)) (T, error) {
	start := st.enter()
	v, err := fn()
	st.call(l, start, st.exit())
	return v, err
}

func (c *clientSrc) Insert(ctx context.Context, table string, rows []types.Row) (int64, error) {
	st := stmtFrom(ctx)
	if st == nil {
		return c.Client.Insert(ctx, table, rows)
	}
	return timed(st, lWriteCall, func() (int64, error) { return c.Client.Insert(ctx, table, rows) })
}

func (c *clientSrc) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	st := stmtFrom(ctx)
	if st == nil {
		return c.Client.Update(ctx, table, filter, set)
	}
	return timed(st, lWriteCall, func() (int64, error) { return c.Client.Update(ctx, table, filter, set) })
}

func (c *clientSrc) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	st := stmtFrom(ctx)
	if st == nil {
		return c.Client.Delete(ctx, table, filter)
	}
	return timed(st, lWriteCall, func() (int64, error) { return c.Client.Delete(ctx, table, filter) })
}

func (c *clientSrc) BeginTx(ctx context.Context) (source.Tx, error) {
	st := stmtFrom(ctx)
	if st == nil {
		return c.Client.BeginTx(ctx)
	}
	tx, err := timed(st, lTxnBegin, func() (source.Tx, error) { return c.Client.BeginTx(ctx) })
	if err != nil {
		return nil, err
	}
	return &clientTx{in: tx, st: st}, nil
}

// clientTx times a participant's side of a global transaction as the
// coordinator sees it: wire round trip and participant lock wait
// included.
type clientTx struct {
	in source.Tx
	st *stmtTrace
}

func (t *clientTx) Insert(ctx context.Context, table string, rows []types.Row) (int64, error) {
	return timed(t.st, lTxnWrite, func() (int64, error) { return t.in.Insert(ctx, table, rows) })
}

func (t *clientTx) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	return timed(t.st, lTxnWrite, func() (int64, error) { return t.in.Update(ctx, table, filter, set) })
}

func (t *clientTx) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	return timed(t.st, lTxnWrite, func() (int64, error) { return t.in.Delete(ctx, table, filter) })
}

func (t *clientTx) protocol(l layer, fn func() error) error {
	_, err := timed(t.st, l, func() (struct{}, error) { return struct{}{}, fn() })
	return err
}

func (t *clientTx) Prepare(ctx context.Context) error {
	return t.protocol(lTxnPrepare, func() error { return t.in.Prepare(ctx) })
}

func (t *clientTx) Commit(ctx context.Context) error {
	return t.protocol(lTxnCommit, func() error { return t.in.Commit(ctx) })
}

func (t *clientTx) Abort(ctx context.Context) error {
	return t.protocol(lTxnAbort, func() error { return t.in.Abort(ctx) })
}

// ---- component-side wrappers (the store handed to wire.Serve) ----

// storeSrc times a component store's Execute and its result stream.
// The server's requests carry no statement identity, so these spans
// count toward run totals only.
type storeSrc struct {
	in   source.Source
	tr   *tracer
	exec layer
}

// storeWriter adds source.Writer; storeFull adds source.Transactional
// and the Stats provider. wrapStore picks the type whose method set
// matches the store's, so the server's type assertions see the same
// capabilities as without the wrapper.
type storeWriter struct {
	*storeSrc
	w source.Writer
}

type storeFull struct {
	*storeWriter
	t  source.Transactional
	sp wire.StatsProvider
}

func (tr *tracer) wrapStore(st source.Source, kind layer) source.Source {
	base := &storeSrc{in: st, tr: tr, exec: kind}
	w, isW := st.(source.Writer)
	t, isT := st.(source.Transactional)
	sp, isS := st.(wire.StatsProvider)
	switch {
	case isW && isT && isS:
		return &storeFull{storeWriter: &storeWriter{storeSrc: base, w: w}, t: t, sp: sp}
	case isW && !isT && !isS:
		return &storeWriter{storeSrc: base, w: w}
	case !isW && !isT && !isS:
		return base
	default:
		panic(fmt.Sprintf("perfbench: no wrapper for the interface set of store %s", st.Name()))
	}
}

func (s *storeSrc) Name() string                                 { return s.in.Name() }
func (s *storeSrc) Tables(ctx context.Context) ([]string, error) { return s.in.Tables(ctx) }
func (s *storeSrc) Capabilities() source.Capabilities            { return s.in.Capabilities() }

func (s *storeSrc) TableInfo(ctx context.Context, table string) (*source.TableInfo, error) {
	return s.in.TableInfo(ctx, table)
}

func (s *storeSrc) Execute(ctx context.Context, q *source.Query) (source.RowIter, error) {
	if !s.tr.on.Load() {
		return s.in.Execute(ctx, q)
	}
	start := s.tr.now()
	it, err := s.in.Execute(ctx, q)
	end := s.tr.now()
	if err != nil {
		s.tr.record(span{id: s.tr.ids.Add(1), parent: -1, stmt: -1, layer: s.exec, start: start, end: end, busy: end - start})
		return nil, err
	}
	return &storeIter{in: it, s: s, start: start, busy: end - start}, nil
}

type storeIter struct {
	in          source.RowIter
	s           *storeSrc
	start, busy int64
	rows        int64
	done        bool
}

func (it *storeIter) Next() (types.Row, error) {
	t := it.s.tr.now()
	r, err := it.in.Next()
	it.busy += it.s.tr.now() - t
	if err == nil {
		it.rows++
	}
	return r, err
}

func (it *storeIter) Close() error {
	t := it.s.tr.now()
	err := it.in.Close()
	e := it.s.tr.now()
	if !it.done {
		it.done = true
		it.busy += e - t
		it.s.tr.record(span{id: it.s.tr.ids.Add(1), parent: -1, stmt: -1, layer: it.s.exec, start: it.start, end: e, busy: it.busy, rows: it.rows})
	}
	return err
}

// write times one autocommit write at the component store.
func (w *storeWriter) write(fn func() (int64, error)) (int64, error) {
	if !w.tr.on.Load() {
		return fn()
	}
	start := w.tr.now()
	n, err := fn()
	end := w.tr.now()
	w.tr.record(span{id: w.tr.ids.Add(1), parent: -1, stmt: -1, layer: writeLayer[w.exec], start: start, end: end, busy: end - start, rows: n})
	return n, err
}

func (w *storeWriter) Insert(ctx context.Context, table string, rows []types.Row) (int64, error) {
	return w.write(func() (int64, error) { return w.w.Insert(ctx, table, rows) })
}

func (w *storeWriter) Update(ctx context.Context, table string, filter expr.Expr, set []source.SetClause) (int64, error) {
	return w.write(func() (int64, error) { return w.w.Update(ctx, table, filter, set) })
}

func (w *storeWriter) Delete(ctx context.Context, table string, filter expr.Expr) (int64, error) {
	return w.write(func() (int64, error) { return w.w.Delete(ctx, table, filter) })
}

func (f *storeFull) BeginTx(ctx context.Context) (source.Tx, error) { return f.t.BeginTx(ctx) }

func (f *storeFull) Stats(table string) (*stats.TableStats, error) { return f.sp.Stats(table) }

// writeSpans dumps every recorded span as tab-separated text.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tstmt\tlayer\tstart_ns\tend_ns\tbusy_ns\trows")
	tr.mu.Lock()
	for _, s := range tr.spans {
		name := layerNames[s.layer]
		if s.layer == lStmt {
			name += "." + tr.classes[s.class]
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n", s.id, s.parent, s.stmt, name, s.start, s.end, s.busy, s.rows)
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error wins
		return err
	}
	return f.Close()
}
