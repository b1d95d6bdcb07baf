package wire

import (
	"reflect"
	"testing"
	"time"

	"gis/internal/faults"
	"gis/internal/obs"
	"gis/internal/source"
)

// runTracedScan executes a full-table scan under a fresh trace with a
// ship parent span (mimicking the mediator's FragScan) and returns the
// ended ship span for inspection. The query must always succeed with n
// rows regardless of what happens to the trace trailer.
func runTracedScan(t *testing.T, cl *Client, n int) *obs.Span {
	t.Helper()
	tr := obs.NewTrace("traced scan")
	tctx := obs.WithTrace(ctx, tr)
	tctx, ship := obs.StartSpan(tctx, obs.SpanShip, "items")
	it, err := cl.Execute(tctx, source.NewScan("items"))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	rows, err := source.Drain(it)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(rows) != n {
		t.Fatalf("got %d rows, want %d", len(rows), n)
	}
	ship.End()
	return ship
}

// remoteChild returns the stitched SpanRemote child of a ship span, or
// nil when the trailer was lost.
func remoteChild(sp *obs.Span) *obs.Span {
	for _, c := range sp.Children() {
		if c.Kind() == obs.SpanRemote {
			return c
		}
	}
	return nil
}

// TestTraceTrailerStitch is the happy path of federation-wide tracing:
// the remote parse/exec/stream subtree arrives in the msgTrace trailer
// and lands under the mediator's ship span, with the remote-compute
// share recorded for the WAN split.
func TestTraceTrailerStitch(t *testing.T) {
	_, cl := startRelServer(t, 600)
	before := mRemoteLost.Value()
	ship := runTracedScan(t, cl, 600)

	remote := remoteChild(ship)
	if remote == nil {
		t.Fatalf("no SpanRemote stitched under ship span; children: %v", ship.Children())
	}
	if remote.Name() != "remote1" {
		t.Errorf("remote span name = %q, want source name %q", remote.Name(), "remote1")
	}
	kinds := map[obs.SpanKind]*obs.Span{}
	for _, c := range remote.Children() {
		kinds[c.Kind()] = c
	}
	for _, want := range []obs.SpanKind{obs.SpanParse, obs.SpanExec, obs.SpanStream} {
		if kinds[want] == nil {
			t.Errorf("remote subtree missing %s span", want)
		}
	}
	if st := kinds[obs.SpanStream]; st != nil {
		if rows, _ := st.Attr("rows"); rows != "600" {
			t.Errorf("stream span rows = %q, want 600", rows)
		}
	}
	if _, ok := ship.Attr("remote_us"); !ok {
		t.Error("ship span missing remote_us (WAN split input)")
	}
	if got := mRemoteLost.Value() - before; got != 0 {
		t.Errorf("remote_lost advanced by %d on the happy path", got)
	}
	// The trailer must leave the connection in protocol sync: the next
	// (untraced) query reuses the pooled conn.
	it, err := cl.Execute(ctx, source.NewScan("items"))
	if err != nil {
		t.Fatalf("follow-up Execute: %v", err)
	}
	if rows, err := source.Drain(it); err != nil || len(rows) != 600 {
		t.Fatalf("follow-up scan = %d rows, %v", len(rows), err)
	}
}

// TestTraceUntracedRequestCompat pins the wire format contract: a
// request with an empty trace id gets msgEnd and no trailer.
func TestTraceUntracedRequestCompat(t *testing.T) {
	_, cl := startRelServer(t, 50)
	before := mRemoteLost.Value()
	for i := 0; i < 3; i++ {
		it, err := cl.Execute(ctx, source.NewScan("items"))
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := source.Drain(it); err != nil || len(rows) != 50 {
			t.Fatalf("scan = %d rows, %v", len(rows), err)
		}
	}
	if got := mRemoteLost.Value() - before; got != 0 {
		t.Errorf("remote_lost advanced by %d for untraced streams", got)
	}
}

// TestSpanCodecRoundTrip round-trips a span subtree through the wire
// codec.
func TestSpanCodecRoundTrip(t *testing.T) {
	in := &obs.SpanData{
		Kind:       "remote",
		Name:       "ny",
		Start:      time.UnixMicro(1234567890123456),
		DurationUS: 4200,
		Attrs:      []obs.Attr{{Key: "trace_id", Value: "deadbeef"}, {Key: "rows", Value: "7"}},
		Children: []*obs.SpanData{
			{Kind: "parse", Name: "rebind", Start: time.UnixMicro(1234567890123460), DurationUS: 10},
			{
				Kind: "stream", Name: "rows", Start: time.UnixMicro(1234567890123500), DurationUS: 4000,
				Attrs: []obs.Attr{{Key: "rows", Value: "7"}},
			},
		},
	}
	var e Encoder
	e.Span(in)
	out, err := NewDecoder(e.Bytes()).Span()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	// A truncated payload must fail cleanly, not panic or over-allocate.
	for cut := 1; cut < len(e.Bytes()); cut += 7 {
		if _, err := NewDecoder(e.Bytes()[:cut]).Span(); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded", cut)
		}
	}
}

// traceChaosHarness arms a server-side fault plan targeting only the
// trace trailer (ops=trace) and returns a connected client with a short
// trailer timeout so degraded paths resolve quickly.
func traceChaosHarness(t *testing.T, spec string) *Client {
	t.Helper()
	plan, err := faults.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := chaosServer(t, 50, plan)
	cl := chaosDial(t, srv.Addr(), WithName("chaos"))
	cl.trailerTimeout = 100 * time.Millisecond
	return cl
}

// TestChaosTraceTrailerDropped severs the connection between msgEnd and
// the trailer on every traced stream. The rows are already complete, so
// the query must succeed; the mediator degrades to its local-only trace
// and counts the loss.
func TestChaosTraceTrailerDropped(t *testing.T) {
	cl := traceChaosHarness(t, "seed=3;*:drop=1.0,ops=trace")
	before := mRemoteLost.Value()
	for i := 0; i < 2; i++ {
		ship := runTracedScan(t, cl, 50)
		if remoteChild(ship) != nil {
			t.Error("dropped trailer must not stitch a remote subtree")
		}
	}
	if got := mRemoteLost.Value() - before; got != 2 {
		t.Errorf("remote_lost advanced by %d, want 2", got)
	}
}

// TestChaosTraceTrailerSkipped injects a transient error at the trailer
// fault point: the server skips the trailer it promised, the client's
// bounded read times out, and the query still succeeds.
func TestChaosTraceTrailerSkipped(t *testing.T) {
	cl := traceChaosHarness(t, "seed=3;*:err=1.0,ops=trace")
	before := mRemoteLost.Value()
	ship := runTracedScan(t, cl, 50)
	if remoteChild(ship) != nil {
		t.Error("skipped trailer must not stitch a remote subtree")
	}
	if got := mRemoteLost.Value() - before; got != 1 {
		t.Errorf("remote_lost advanced by %d, want 1", got)
	}
}

// TestChaosTraceTrailerStalled stalls the trailer write past the
// client's trailer timeout. The stream itself is untouched; only the
// trace degrades.
func TestChaosTraceTrailerStalled(t *testing.T) {
	cl := traceChaosHarness(t, "seed=3;*:stall=400ms,stallp=1,ops=trace")
	before := mRemoteLost.Value()
	ship := runTracedScan(t, cl, 50)
	if remoteChild(ship) != nil {
		t.Error("stalled trailer must not stitch a remote subtree")
	}
	if got := mRemoteLost.Value() - before; got != 1 {
		t.Errorf("remote_lost advanced by %d, want 1", got)
	}
	// After the degraded trailer the conn was discarded; a fresh query
	// must work (untraced: the trailer fault point is not hit).
	it, err := cl.Execute(ctx, source.NewScan("items"))
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := source.Drain(it); err != nil || len(rows) != 50 {
		t.Fatalf("follow-up scan = %d rows, %v", len(rows), err)
	}
}
