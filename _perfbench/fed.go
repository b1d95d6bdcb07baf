package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"gis/internal/catalog"
	"gis/internal/core"
	"gis/internal/docstore"
	"gis/internal/expr"
	"gis/internal/filestore"
	"gis/internal/kvstore"
	"gis/internal/relstore"
	"gis/internal/source"
	"gis/internal/types"
	"gis/internal/wire"
)

// federation is one running benchmark federation: an engine whose
// every source is a wire client dialed over loopback TCP to a wire
// server in this process, on a zero-latency SimLink.
type federation struct {
	eng     *core.Engine
	closers []func() error
}

// close shuts the clients and servers down. A wedged federation can
// keep a server handler parked inside a store call forever, and
// wire.Server.Close waits for its handlers, so close gives up after
// the grace period and leaves the rest to process exit.
func (f *federation) close(grace time.Duration) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := len(f.closers) - 1; i >= 0; i-- {
			_ = f.closers[i]() // teardown: nothing left to report to
		}
	}()
	select {
	case <-done:
	case <-time.After(grace):
	}
}

// attach serves st over loopback TCP and registers the dialed client
// with the catalog. With a tracer, the store handed to wire.Serve and
// the client the catalog holds are both wrapped in span recorders.
func (f *federation) attach(ctx context.Context, st source.Source, kind layer, tr *tracer) error {
	served := st
	if tr != nil {
		served = tr.wrapStore(st, kind)
	}
	srv, err := wire.Serve(ctx, "127.0.0.1:0", served)
	if err != nil {
		return err
	}
	f.closers = append(f.closers, srv.Close)
	cl, err := wire.DialContext(ctx, srv.Addr(), wire.WithSimLink(wire.SimLink{}), wire.WithName(st.Name()))
	if err != nil {
		return err
	}
	f.closers = append(f.closers, cl.Close)
	var reg source.Source = cl
	if tr != nil {
		reg = &clientSrc{Client: cl}
	}
	return f.eng.Catalog().AddSource(reg)
}

// rangeFragment maps a whole remote table into global table name as
// the partition lo <= col < hi.
func rangeFragment(ctx context.Context, cat *catalog.Catalog, name, src, remote, col string, ncols int, lo, hi int64) error {
	cols := make([]catalog.ColumnMapping, ncols)
	for i := range cols {
		cols[i] = catalog.ColumnMapping{RemoteCol: i}
	}
	return cat.MapFragment(ctx, name, &catalog.Fragment{
		Source: src, RemoteTable: remote, Columns: cols,
		Where: expr.NewBinary(expr.OpAnd,
			expr.NewBinary(expr.OpGe, expr.NewColRef("", col), expr.NewConst(types.NewInt(lo))),
			expr.NewBinary(expr.OpLt, expr.NewColRef("", col), expr.NewConst(types.NewInt(hi)))),
	})
}

// Shape of the accounts federation shared by oltp and txn.
const (
	nAccounts = 100_000
	nBanks    = 4
)

// buildAccounts generates the accounts and loads them into nBanks
// transactional relstores, each owning one contiguous id range of the
// global accounts table.
func buildAccounts(ctx context.Context, seed int64, tr *tracer) (*federation, []account, error) {
	accts := genAccounts(nAccounts, seed)
	f := &federation{eng: core.New()}
	cat := f.eng.Catalog()
	if err := cat.DefineTable("accounts", accountSchema()); err != nil {
		return f, nil, err
	}
	per := nAccounts / nBanks
	for p := 0; p < nBanks; p++ {
		name := fmt.Sprintf("bank%d", p)
		st := relstore.New(name)
		if err := st.CreateTable("acct", accountSchema(), 0); err != nil {
			return f, nil, err
		}
		rows := make([]types.Row, per)
		for i := range rows {
			rows[i] = accts[p*per+i].row()
		}
		if _, err := st.Insert(ctx, "acct", rows); err != nil {
			return f, nil, err
		}
		if err := f.attach(ctx, st, lRelstore, tr); err != nil {
			return f, nil, err
		}
		if err := rangeFragment(ctx, cat, "accounts", name, "acct", "id", 4, int64(p*per), int64((p+1)*per)); err != nil {
			return f, nil, err
		}
	}
	return f, accts, f.eng.Analyze(ctx)
}

// buildAnalytic generates the analytic data and serves it from two
// order relstores (range-partitioned on oid), a customer relstore, a
// kvstore, a docstore and a filestore.
func buildAnalytic(ctx context.Context, seed int64, tr *tracer) (*federation, *analyticData, error) {
	d := genAnalytic(seed)
	f := &federation{eng: core.New()}
	cat := f.eng.Catalog()

	half := int64(len(d.orders) / 2)
	if err := cat.DefineTable("orders", orderSchema()); err != nil {
		return f, nil, err
	}
	for i, part := range [][]order{d.orders[:half], d.orders[half:]} {
		name := fmt.Sprintf("ord%d", i)
		st := relstore.New(name)
		if err := st.CreateTable("orders", orderSchema(), 0); err != nil {
			return f, nil, err
		}
		rows := make([]types.Row, len(part))
		for j, o := range part {
			rows[j] = o.row()
		}
		if _, err := st.Insert(ctx, "orders", rows); err != nil {
			return f, nil, err
		}
		if err := f.attach(ctx, st, lRelstore, tr); err != nil {
			return f, nil, err
		}
		lo := int64(i) * half
		if err := rangeFragment(ctx, cat, "orders", name, "orders", "oid", 6, lo, lo+half); err != nil {
			return f, nil, err
		}
	}

	crm := relstore.New("crm")
	if err := crm.CreateTable("customers", customerSchema(), 0); err != nil {
		return f, nil, err
	}
	crows := make([]types.Row, len(d.customers))
	for i, c := range d.customers {
		crows[i] = c.row()
	}
	if _, err := crm.Insert(ctx, "customers", crows); err != nil {
		return f, nil, err
	}

	kv := kvstore.New("catalog_kv")
	if err := kv.CreateBucket("products", productSchema(), 0); err != nil {
		return f, nil, err
	}
	prows := make([]types.Row, len(d.products))
	for i, p := range d.products {
		prows[i] = p.row()
	}
	if _, err := kv.Insert(ctx, "products", prows); err != nil {
		return f, nil, err
	}

	ds := docstore.New("support_doc")
	ts := ticketSchema()
	if err := ds.CreateCollection("tickets", []docstore.FieldMap{
		{Column: ts.Columns[0], Path: "tid"},
		{Column: ts.Columns[1], Path: "cust.id"},
		{Column: ts.Columns[2], Path: "status"},
		{Column: ts.Columns[3], Path: "priority"},
	}); err != nil {
		return f, nil, err
	}
	for _, t := range d.tickets {
		doc := map[string]any{
			"tid":      float64(t.tid),
			"cust":     map[string]any{"id": float64(t.custID)},
			"status":   t.status,
			"priority": float64(t.priority),
		}
		if err := ds.InsertDoc("tickets", doc); err != nil {
			return f, nil, err
		}
	}

	fs := filestore.New("logistics_csv")
	if err := fs.RegisterData("shipments", shipmentsCSV(d.shipments), shipmentSchema()); err != nil {
		return f, nil, err
	}

	for _, s := range []struct {
		st     source.Source
		kind   layer
		global string
		remote string
		schema *types.Schema
	}{
		{crm, lRelstore, "customers", "customers", customerSchema()},
		{kv, lKvstore, "products", "products", productSchema()},
		{ds, lDocstore, "tickets", "tickets", ticketSchema()},
		{fs, lFilestore, "shipments", "shipments", shipmentSchema()},
	} {
		if err := f.attach(ctx, s.st, s.kind, tr); err != nil {
			return f, nil, err
		}
		if err := cat.DefineTable(s.global, s.schema); err != nil {
			return f, nil, err
		}
		if err := cat.MapSimple(ctx, s.global, s.st.Name(), s.remote); err != nil {
			return f, nil, err
		}
	}
	return f, d, f.eng.Analyze(ctx)
}

// timedSetups builds the federation n times and returns the median
// build time together with the last build; the earlier ones are torn
// down. A forced GC before each build keeps one build's garbage from
// billing the next.
func timedSetups[T any](ctx context.Context, n int, build func(context.Context) (*federation, T, error)) (float64, *federation, T, error) {
	var zero T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		f, data, err := build(ctx)
		el := time.Since(start).Seconds()
		if err != nil {
			f.close(5 * time.Second)
			return 0, nil, zero, err
		}
		times = append(times, el)
		if i < n-1 {
			f.close(5 * time.Second)
			continue
		}
		fmt.Fprintf(os.Stderr, "setup seconds: %.3f\n", times)
		sort.Float64s(times)
		return times[len(times)/2], f, data, nil
	}
	return 0, nil, zero, fmt.Errorf("no setup requested")
}
