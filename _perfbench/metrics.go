package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"gis/internal/obs"
	"gis/internal/types"
	"gis/internal/wire"
)

// percentileMs returns the nearest-rank p-th percentile of ds in
// milliseconds; ok is false for an empty sample.
func percentileMs(ds []time.Duration, p float64) (float64, bool) {
	if len(ds) == 0 {
		return 0, false
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return float64(s[k]) / 1e6, true
}

// classGeomean is the geometric mean over classes of each class's
// median latency (ms), skipping classes without a completed statement.
func classGeomean(lat [][]time.Duration) (float64, bool) {
	var sum float64
	n := 0
	for _, ds := range lat {
		if m, ok := percentileMs(ds, 50); ok {
			sum += math.Log(m)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return math.Exp(sum / float64(n)), true
}

// endToEnd fills the untraced run's metrics. A metric whose statement
// class has no completed statement is left out.
func endToEnd(rep *report, wl workload, ph *phase, m0, m1 *runtime.MemStats, setupS float64) {
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	put("setup_s", setupS, "s")
	put("throughput_qps", float64(ph.completed)/ph.window.Seconds(), "1/s")
	if g, ok := classGeomean(ph.lat); ok {
		put("query_geomean_ms", g, "ms")
	}
	if ph.attempted > 0 {
		put("allocs_per_stmt", float64(m1.Mallocs-m0.Mallocs)/float64(ph.attempted), "count")
		put("alloc_bytes_per_stmt", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ph.attempted), "B")
	}
}

// classLatencies fills <class>_p50_ms and <class>_p99_ms for the
// accounts workloads' statement classes, reading 0 where the workload
// has no completed statement of the class.
func classLatencies(put func(string, float64, string), wl workload, ph *phase) {
	idx := map[string]int{}
	for i, c := range wl.classes() {
		idx[c] = i
	}
	for _, c := range []string{"lookup", "range", "write"} {
		for _, p := range []struct {
			suffix string
			q      float64
		}{{"_p50_ms", 50}, {"_p99_ms", 99}} {
			v := 0.0
			if i, ok := idx[c]; ok {
				v, _ = percentileMs(ph.lat[i], p.q)
			}
			put(c+p.suffix, v, "ms")
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterDelta sums the deltas of every counter whose name passes keep.
func counterDelta(before, after *obs.Snapshot, keep func(string) bool) float64 {
	var d int64
	for name, v := range after.Counters {
		if keep(name) {
			d += v - before.Counters[name]
		}
	}
	return float64(d)
}

// perLayer fills the traced run's per-layer metrics. Every ratio
// carries its base in its unit: /stmt is per completed traced
// statement, /fetch per result stream, /row per encoded or decoded row.
func perLayer(rep *report, wl workload, tr *tracer, untraced, traced *phase, before, after *obs.Snapshot) {
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	tr.mu.Lock()
	a, tot, sample := tr.acct, tr.tot, tr.sample
	tr.mu.Unlock()
	n := float64(a.stmts)
	ms := func(ns int64) float64 { return ratio(float64(ns)/1e6, n) }
	us := func(ns int64) float64 { return ratio(float64(ns)/1e3, n) }
	count := func(name string) float64 {
		return ratio(counterDelta(before, after, func(s string) bool { return s == name }), n)
	}

	// Accounting: stmt = residual + parse + bind + optimize + exec self
	// + core.write self + wire client union.
	put("trace.stmt_ms", ms(a.stmtNs), "ms/stmt")
	put("trace.residual_ms", ms(a.residualNs), "ms/stmt")
	put("sql.parse_us", us(a.parseNs), "us/stmt")
	put("plan.bind_us", us(a.bindNs), "us/stmt")
	put("plan.optimize_us", us(a.optNs), "us/stmt")
	put("exec.self_ms", ms(a.execSelfNs), "ms/stmt")
	put("core.write_self_ms", ms(a.coreWriteSelf), "ms/stmt")
	put("wire.client_ms", ms(a.unionNs), "ms/stmt")

	put("plan.fragments", ratio(float64(a.frags), n), "frags/stmt")
	put("plan.joinorder_considered", count("plan.joinorder.considered"), "plans/stmt")
	put("exec.rows_fetched", count("exec.source.rows_fetched"), "rows/stmt")
	put("exec.bytes_fetched", count("exec.source.bytes_fetched"), "B/stmt")
	put("exec.join_build_rows", count("exec.join.build_rows"), "rows/stmt")
	put("exec.join_probe_rows", count("exec.join.probe_rows"), "rows/stmt")
	put("exec.agg_input_rows", count("exec.agg.input_rows"), "rows/stmt")
	put("exec.result_rows", ratio(float64(a.resultRows), n), "rows/stmt")

	var storeNs int64
	for _, l := range []layer{lRelstore, lKvstore, lDocstore, lFilestore} {
		storeNs += tot.busy[l]
		name := strings.TrimSuffix(layerNames[l], ".execute")
		put(name+".execute_ms", ms(tot.busy[l]), "ms/stmt")
		put(name+".rows_out", ratio(float64(tot.rows[l]), n), "rows/stmt")
	}
	put("relstore.write_ms", ms(tot.busy[lRelstoreWrite]), "ms/stmt")

	put("wire.fetch_ms", ms(tot.busy[lFetch]), "ms/stmt")
	put("wire.transport_ms", ms(tot.busy[lFetch]-storeNs), "ms/stmt")
	put("wire.first_row_us", ratio(float64(a.firstRowNs)/1e3, float64(a.fetches)), "us/fetch")
	put("wire.write_call_ms", ms(tot.busy[lWriteCall]), "ms/stmt")
	isClient := func(suffix string) func(string) bool {
		return func(s string) bool { return strings.HasPrefix(s, "wire.client.") && strings.Contains(s, suffix) }
	}
	put("wire.frames", ratio(counterDelta(before, after, isClient(".frames_")), n), "frames/stmt")
	put("wire.bytes", ratio(counterDelta(before, after, isClient(".bytes_")), n), "B/stmt")
	enc, dec := codecNsPerRow(sample)
	put("wire.encode_ns_per_row", enc, "ns/row")
	put("wire.decode_ns_per_row", dec, "ns/row")

	put("txn.prepare_ms", ms(tot.busy[lTxnPrepare]), "ms/stmt")
	put("txn.commit_ms", ms(tot.busy[lTxnCommit]), "ms/stmt")
	put("txn.tx_write_ms", ms(tot.busy[lTxnWrite]), "ms/stmt")
	put("txn.committed", count("txn.committed"), "txn/stmt")
	put("txn.aborted", count("txn.aborted"), "txn/stmt")
	put("txn.one_phase", count("txn.one_phase"), "txn/stmt")
	put("txn.stuck_stmts", float64(untraced.stuck+traced.stuck), "count")

	// Overhead: traced vs untraced per-class median statement time,
	// geometric mean over the classes both phases completed.
	var logSum float64
	k := 0
	for c := range untraced.lat {
		u, ok1 := percentileMs(untraced.lat[c], 50)
		t, ok2 := percentileMs(traced.lat[c], 50)
		if ok1 && ok2 {
			logSum += math.Log(t / u)
			k++
		}
	}
	overhead := 0.0
	if k > 0 {
		overhead = (math.Exp(logSum/float64(k)) - 1) * 100
	}
	put("trace.overhead_pct", overhead, "%")

	// Statement-class breakdown and error rate, from the untraced half.
	classLatencies(put, wl, untraced)
	put("error_rate", ratio(float64(untraced.failed+traced.failed), float64(untraced.attempted+traced.attempted)), "ratio")
}

// writeCounters writes every registry counter that moved over the
// traced half — exec.*, plan.*, txn.*, wire.client.<src>.* and the rest
// — with its delta, its base (completed traced statements) and the
// ratio, sorted by name.
func writeCounters(path string, before, after *obs.Snapshot, stmts int64) error {
	var names []string
	for name, v := range after.Counters {
		if v != before.Counters[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("counter\tdelta\tbase_stmts\tper_stmt\n")
	for _, name := range names {
		d := after.Counters[name] - before.Counters[name]
		fmt.Fprintf(&b, "%s\t%d\t%d\t%.6g\n", name, d, stmts, ratio(float64(d), float64(stmts)))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// codecNsPerRow times the public wire codec on a sample of the
// workload's own result rows: Encoder.Row over the sample, then
// Decoder.Row over the encoded bytes, each repeated for at least 50ms.
func codecNsPerRow(sample []types.Row) (float64, float64) {
	if len(sample) == 0 {
		return 0, 0
	}
	const minTime = 50 * time.Millisecond
	var e wire.Encoder
	var rows int
	start := time.Now()
	for time.Since(start) < minTime {
		e.Reset()
		for _, r := range sample {
			e.Row(r)
		}
		rows += len(sample)
	}
	enc := float64(time.Since(start).Nanoseconds()) / float64(rows)
	buf := e.Bytes()
	rows = 0
	start = time.Now()
	for time.Since(start) < minTime {
		d := wire.NewDecoder(buf)
		for range sample {
			if _, err := d.Row(); err != nil {
				return enc, 0
			}
		}
		rows += len(sample)
	}
	return enc, float64(time.Since(start).Nanoseconds()) / float64(rows)
}
