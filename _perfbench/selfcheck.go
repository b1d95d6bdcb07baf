package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the self-check reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default exclusive method.
func quartiles(sorted []float64) (q1, q3 float64) {
	ld := len(sorted)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// spread is the interquartile distance as a share of the median; an
// all-zero sample (a workload where nothing completes) has spread 0.
func spread(vals []float64) (med, sp float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med = median(s)
	if len(s) < 2 {
		return med, 0
	}
	q1, q3 := quartiles(s)
	if q3-q1 == 0 {
		return med, 0
	}
	if med == 0 {
		return med, math.Inf(1)
	}
	return med, (q3 - q1) / math.Abs(med)
}

// medianGap is how far apart two sets' medians are, as a share of the
// first, whichever set is the better one.
func medianGap(m1, m2 float64) float64 {
	if m1 == 0 {
		if m2 == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(m2-m1) / math.Abs(m1)
}

// runChild runs one benchmark run in a child process and parses its
// last stdout line.
func runChild(workload string, seed int64, seconds int) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Second)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line (%v)", workload, seed, runErr)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("%s seed %d: wrong answers", workload, seed)
	}
	return &rep, nil
}

// runSelfcheck runs two sets of runs per workload, seeds 1..runs and
// 101..100+runs, and reports per end-to-end metric each set's median
// and spread, and whether the sets agree: both spreads within the
// metric's bound and the two medians apart by at most the bound, as a
// share of the first, in either direction. error_rate, from each run's
// attempted and failed counts, agrees when the medians differ by at
// most 0.01. A metric a workload does not report (its statement class
// never completes) is listed as absent.
func runSelfcheck(runs int, workloads string, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return err
	}
	names := strings.Split(workloads, ",")
	if workloads == "" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	if seconds == 0 {
		seconds = spec.RunSeconds
	}
	allOK := true
	for _, w := range names {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				seed := int64(1 + 100*s + i)
				rep, err := runChild(w, seed, seconds)
				if err != nil {
					return err
				}
				for name, m := range rep.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
				sets[s]["error_rate"] = append(sets[s]["error_rate"], ratio(float64(rep.Failed), float64(rep.Attempted)))
				fmt.Fprintf(os.Stderr, "selfcheck %s set %d seed %d done\n", w, s+1, seed)
			}
		}
		fmt.Printf("%s (%d runs per set)\n", w, runs)
		fmt.Printf("  %-22s %14s %8s %14s %8s %8s %7s  %s\n", "metric", "median1", "spread1", "median2", "spread2", "gap", "bound", "verdict")
		for _, e := range spec.EndToEnd {
			a, b := sets[0][e.Name], sets[1][e.Name]
			if len(a) == 0 && len(b) == 0 {
				fmt.Printf("  %-22s absent\n", e.Name)
				continue
			}
			if len(a) != runs || len(b) != runs {
				fmt.Printf("  %-22s reported by only %d+%d of %d runs: UNSTEADY\n", e.Name, len(a), len(b), 2*runs)
				allOK = false
				continue
			}
			m1, s1 := spread(a)
			m2, s2 := spread(b)
			gap := medianGap(m1, m2)
			ok := gap <= e.Bound && s1 <= e.Bound && s2 <= e.Bound
			verdict := "agree"
			if !ok {
				verdict, allOK = "DISAGREE", false
			}
			fmt.Printf("  %-22s %14.6g %8.4f %14.6g %8.4f %8.4f %7.3f  %s\n", e.Name, m1, s1, m2, s2, gap, e.Bound, verdict)
		}
		m1, _ := spread(sets[0]["error_rate"])
		m2, _ := spread(sets[1]["error_rate"])
		verdict := "agree"
		if math.Abs(m2-m1) > 0.01 {
			verdict, allOK = "DISAGREE", false
		}
		fmt.Printf("  %-22s %14.6g %8s %14.6g %8s %8.4f %7s  %s\n", "error_rate", m1, "", m2, "", math.Abs(m2-m1), "0.01", verdict)
	}
	out, err := json.Marshal(map[string]bool{"steady": allOK})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
