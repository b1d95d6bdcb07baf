// Command perfbench is the repository's benchmark. It builds a seeded
// federation whose every source is served by a wire server over
// loopback TCP on a zero-latency link, runs one named workload from a
// single process in a closed loop, checks every answer against results
// computed in plain Go, and prints one JSON line of metrics.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash _perfbench/run.sh --workload oltp --seed 1 --seconds 10 --trace 0
//	bash _perfbench/run.sh --selfcheck --runs 5
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs an untraced half and a traced half and prints the per-layer
// metrics. NOTES.md describes the workloads, metrics and findings.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gis/internal/core"
	"gis/internal/obs"
	"gis/internal/types"
)

// errUnverifiable marks an end-of-run check the federation could not
// answer (a wedged federation); it is reported, not counted as wrong.
var errUnverifiable = errors.New("check could not run")

// outDir holds span dumps and stuck-goroutine witnesses, relative to
// the repository root the benchmark runs from.
const outDir = ".bench_out"

// setupRuns is how many times an untraced run builds its federation;
// setup_s is the median.
const setupRuns = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wlName    = flag.String("workload", "", "workload: oltp, analytic or txn")
		seed      = flag.Int64("seed", 1, "seed for data and statement generation")
		seconds   = flag.Int("seconds", 20, "measured seconds (-selfcheck: BENCHMARK.json's run_seconds unless set)")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of runs per workload and report whether they agree within BENCHMARK.json's bounds")
		runs      = flag.Int("runs", 5, "runs per set for -selfcheck")
		workloads = flag.String("workloads", "", "comma-separated workloads for -selfcheck (default: BENCHMARK.json's)")
	)
	flag.Parse()
	if *selfcheck {
		childSeconds := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seconds" {
				childSeconds = *seconds
			}
		})
		if err := runSelfcheck(*runs, *workloads, childSeconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runOnce(*wlName, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runOnce sets the federation up, warms it, measures and checks.
func runOnce(name string, seed int64, dur time.Duration, traced bool) (*report, error) {
	ctx := context.Background()
	var tr *tracer
	nSetups := setupRuns
	if traced {
		tr = newTracer()
		nSetups = 1
	}
	var wl workload
	var fed *federation
	var setupS float64
	var err error
	switch name {
	case "oltp", "txn":
		var accts []account
		setupS, fed, accts, err = timedSetups(ctx, nSetups, func(ctx context.Context) (*federation, []account, error) {
			return buildAccounts(ctx, seed, tr)
		})
		if err == nil {
			m := newAcctModel(accts)
			if name == "oltp" {
				wl = &oltpWL{m: m}
			} else {
				wl = &txnWL{m: m}
			}
		}
	case "analytic":
		var d *analyticData
		setupS, fed, d, err = timedSetups(ctx, nSetups, func(ctx context.Context) (*federation, *analyticData, error) {
			return buildAnalytic(ctx, seed, tr)
		})
		if err == nil {
			wl = newAnalyticWL(d, seed)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want oltp, analytic or txn)", name)
	}
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if tr != nil {
		tr.classes = wl.classes()
	}
	x := &executor{eng: fed.eng, tr: tr}

	// Warm-up: let connection pools fill and lazy set-up finish.
	warm := runPhase(ctx, wl, x, seed+1_000_003, 500*time.Millisecond)
	phases := []*phase{warm}
	rep := &report{Metrics: map[string]metric{}}
	if !traced {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ph := runPhase(ctx, wl, x, seed, dur)
		runtime.ReadMemStats(&m1)
		phases = append(phases, ph)
		endToEnd(rep, wl, ph, &m0, &m1, setupS)
		logClasses(wl, ph)
	} else {
		untraced := runPhase(ctx, wl, x, seed, dur/2)
		before := obs.Default().Snapshot()
		tr.on.Store(true)
		tracedPh := runPhase(ctx, wl, x, seed+7, dur/2)
		tr.on.Store(false)
		after := obs.Default().Snapshot()
		phases = append(phases, untraced, tracedPh)
		logClasses(wl, untraced)
		perLayer(rep, wl, tr, untraced, tracedPh, &before, &after)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeSpans(filepath.Join(outDir, name+".spans.tsv")); err != nil {
			return nil, err
		}
		tr.mu.Lock()
		stmts := tr.acct.stmts
		tr.mu.Unlock()
		if err := writeCounters(filepath.Join(outDir, name+".counters.tsv"), &before, &after, stmts); err != nil {
			return nil, err
		}
	}

	rep.Correct = true
	var stuck int64
	for _, ph := range phases {
		rep.Attempted += ph.attempted
		rep.Failed += ph.failed
		stuck += ph.stuck
		if ph.wrong > 0 {
			rep.Correct = false
		}
	}
	if stuck > 0 {
		path, err := dumpStacks(name, seed, stuck)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%d statement(s) ignored their deadline; goroutine stacks in %s\n", stuck, path)
	}
	if err := wl.final(ctx, x); err != nil {
		fmt.Fprintln(os.Stderr, "end-of-run check:", err)
		if !errors.Is(err, errUnverifiable) {
			rep.Correct = false
		}
	}
	if !traced {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rep.Metrics["heap_inuse_mb"] = metric{float64(ms.HeapInuse) / (1 << 20), "MB"}
	}
	fed.close(2 * time.Second)
	return rep, nil
}

// logClasses describes each class's completed statements on stderr.
func logClasses(wl workload, ph *phase) {
	fmt.Fprintf(os.Stderr, "%d attempted, %d failed, %d completed in %.2fs (%.1f/s)\n",
		ph.attempted, ph.failed, ph.completed, ph.window.Seconds(), float64(ph.completed)/ph.window.Seconds())
	for i, c := range wl.classes() {
		p50, _ := percentileMs(ph.lat[i], 50)
		p99, _ := percentileMs(ph.lat[i], 99)
		fmt.Fprintf(os.Stderr, "  %-11s n=%-6d p50=%.3fms p99=%.3fms\n", c, len(ph.lat[i]), p50, p99)
	}
}

// dumpStacks writes every goroutine's stack, the witness of statements
// that ignored their deadline.
func dumpStacks(name string, seed, stuck int64) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-stuck-goroutines.txt", name, seed))
	head := fmt.Sprintf("%d statement(s) of workload %s (seed %d) did not return within deadline + %s.\n\n", stuck, name, seed, abandonGrace)
	return path, os.WriteFile(path, append([]byte(head), buf...), 0o644)
}

// executor runs one statement, traced while the tracer is on.
type executor struct {
	eng *core.Engine
	tr  *tracer // nil in untraced runs
}

func (x *executor) run(ctx context.Context, o *op) ([]types.Row, int64, error) {
	if x.tr != nil && x.tr.on.Load() {
		return x.tr.run(ctx, x.eng, o)
	}
	if o.write {
		n, err := x.eng.Exec(ctx, o.sql, o.params...)
		return nil, n, err
	}
	res, err := x.eng.Query(ctx, o.sql, o.params...)
	if err != nil {
		return nil, 0, err
	}
	return res.Rows, 0, nil
}
