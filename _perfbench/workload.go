package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gis/internal/types"
)

// op is one statement of a workload, with the state its check needs.
type op struct {
	class  int
	sql    string
	params []types.Value
	write  bool

	// Accounts workloads: the key or key range and the increment.
	id, lo, hi int64
	delta      float64
	snap       []int32
	// Analytic workload: the query instance with its expected answer.
	inst *instance

	// state arbitrates between the worker finishing the statement (1)
	// and the client abandoning it at its deadline (2); whichever moves
	// it off 0 first owns the outcome.
	state atomic.Int32
}

// workload generates statements and checks their answers.
type workload interface {
	classes() []string
	clients() int
	// unit is the number of consecutive statements a client always
	// finishes together (a whole rotation), so every run covers the
	// classes in the same proportions.
	unit() int
	deadline() time.Duration
	next(c, i int, rng *rand.Rand, o *op)
	// begin runs just before the statement is sent and verify just
	// after it succeeds, both on the goroutine that runs it.
	begin(o *op)
	verify(o *op, rows []types.Row, n int64) error
	// unknown records that the statement failed or was abandoned, so
	// its effect, if any, is not known.
	unknown(o *op)
	// final checks the state the whole run left behind.
	final(ctx context.Context, x *executor) error
}

// abandonGrace is how long a client waits past a statement's deadline
// for it to return before abandoning it.
const abandonGrace = time.Second

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	attempted, failed, wrong, completed int64
	stuck                               int64
	window                              time.Duration
	lat                                 [][]time.Duration // per class, successful statements only
}

type outcome struct {
	lat  time.Duration
	rows []types.Row // only for statements run without a workload
	err  error
	verr error
}

type job struct {
	ctx context.Context
	o   *op
}

// worker runs statements handed to it one at a time. A caller hands a
// statement to its worker and waits for the outcome or the deadline,
// so a statement that never returns strands only its worker.
type worker struct {
	in  chan job
	out chan outcome
}

// startWorker starts a worker that runs wl's begin and verify hooks
// around each statement; with a nil wl it runs bare statements and
// returns their rows.
func startWorker(wl workload, x *executor) *worker {
	w := &worker{in: make(chan job), out: make(chan outcome, 1)}
	go func() {
		for j := range w.in {
			o := j.o
			if wl != nil {
				wl.begin(o)
			}
			start := time.Now()
			rows, n, err := x.run(j.ctx, o)
			lat := time.Since(start)
			if !o.state.CompareAndSwap(0, 1) {
				continue // abandoned: the caller already counted it
			}
			res := outcome{lat: lat, err: err}
			switch {
			case wl == nil:
				res.rows = rows
			case err == nil:
				res.verr = wl.verify(o, rows, n)
			default:
				wl.unknown(o)
			}
			w.out <- res
		}
	}()
	return w
}

// do runs o on w under deadline d. When o has not returned abandonGrace
// past its deadline, do abandons it and returns ok false; w is then
// stranded and must not be used again.
func (w *worker) do(ctx context.Context, o *op, d time.Duration) (res outcome, ok bool) {
	sctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	w.in <- job{ctx: sctx, o: o}
	select {
	case res = <-w.out:
		return res, true
	case <-sctx.Done():
	}
	t := time.NewTimer(abandonGrace)
	defer t.Stop()
	select {
	case res = <-w.out:
		return res, true
	case <-t.C:
		if o.state.CompareAndSwap(0, 2) {
			return outcome{}, false
		}
		return <-w.out, true
	}
}

// stop ends w's goroutine once its current statement, if any, returns.
func (w *worker) stop() { close(w.in) }

// wrongLog limits how many wrong answers are described on stderr.
var wrongLog atomic.Int32

// runPhase drives wl's closed loop for dur: each client sends its next
// statement only after the previous one completed, failed or was
// abandoned, and stops at the first whole unit after dur has elapsed.
func runPhase(ctx context.Context, wl workload, x *executor, seed int64, dur time.Duration) *phase {
	ncl := wl.clients()
	parts := make([]*phase, ncl)
	ends := make([]time.Time, ncl)
	start := time.Now()
	stopAt := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < ncl; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = runClient(ctx, wl, x, c, seed, stopAt)
			ends[c] = time.Now()
		}(c)
	}
	wg.Wait()
	ph := &phase{lat: make([][]time.Duration, len(wl.classes()))}
	var end time.Time
	for c, p := range parts {
		ph.attempted += p.attempted
		ph.failed += p.failed
		ph.wrong += p.wrong
		ph.completed += p.completed
		ph.stuck += p.stuck
		for k := range p.lat {
			ph.lat[k] = append(ph.lat[k], p.lat[k]...)
		}
		if ends[c].After(end) {
			end = ends[c]
		}
	}
	ph.window = end.Sub(start)
	return ph
}

func runClient(ctx context.Context, wl workload, x *executor, c int, seed int64, stopAt time.Time) *phase {
	p := &phase{lat: make([][]time.Duration, len(wl.classes()))}
	rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
	w := startWorker(wl, x)
	for i := 0; i%wl.unit() != 0 || time.Now().Before(stopAt); i++ {
		o := &op{}
		wl.next(c, i, rng, o)
		p.attempted++
		res, ok := w.do(ctx, o, wl.deadline())
		switch {
		case !ok:
			// The statement ignored its deadline. Count it failed,
			// leave its worker stranded and carry on with a new one.
			wl.unknown(o)
			p.failed++
			p.stuck++
			w = startWorker(wl, x)
		case res.err != nil:
			p.failed++
		case res.verr != nil:
			p.wrong++
			p.completed++
			if wrongLog.Add(1) <= 5 {
				fmt.Fprintf(os.Stderr, "wrong answer: %s %v: %v\n", o.sql, o.params, res.verr)
			}
		default:
			p.completed++
			p.lat[o.class] = append(p.lat[o.class], res.lat)
		}
	}
	w.stop()
	return p
}
