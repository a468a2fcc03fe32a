// Command dtxperf is the DTX benchmark: closed-loop transaction workloads
// driven through the public dtx API, a correctness gate after every run, and
// a separate traced run that attributes time and work to the program's
// layers. See README.md beside this file for why each workload exists and
// which layer metric should move which end-to-end metric.
//
//	dtxperf -workload quorum-mix -seed 1 -seconds 50 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end set, with -trace 1 the per-layer set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory the span dump is written to
	docKB    int    // size of each generated document
	rounds   int    // rounds of an untraced run, each with its own set-up; setup_s is their median
	minTxns  int    // a timed phase runs on until this many transactions finished
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated documents and operation streams")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the timed phases, all rounds together")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for the span dump of a traced run")
	flag.Parse()
	o.trace = trace == 1
	// Documents of about 256 KB; an untraced run is five rounds, so setup_s
	// is the median of five set-ups; a timed phase runs on until 1000
	// transactions finished, so its p99 has ten samples beyond it. The
	// smoke test shrinks these.
	o.docKB, o.rounds, o.minTxns = 256, 5, 1000
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtxperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtxperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct || rep.Failed > 0 {
		os.Exit(1)
	}
}

// run executes one benchmark invocation and returns its report. Progress and
// the human-readable summary go to w.
func run(o options, w io.Writer) (*report, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%v doc_kb=%d\n%s\n", wl.name, o.seed, o.seconds, o.trace, o.docKB, wl.why)
	if o.trace {
		return runTraced(wl, o, w)
	}
	return runEndToEnd(wl, o, w)
}

// runEndToEnd is the untraced run. It is split into o.rounds rounds, each
// with a cluster of its own: a timed set-up, a closed loop of
// o.seconds/o.rounds, the correctness gate and a live-heap reading.
// setup_s, txn_p99_ms and live_heap_mb are medians over the rounds,
// commit_tps and txn_p50_ms medians over the one-second windows of all
// rounds, so one unusual cluster or stall of the machine moves one sample,
// not the run's figure.
func runEndToEnd(wl *workload, o options, w io.Writer) (*report, error) {
	var setups, tps, p50, p99s, heap []float64
	var attempted, failed int
	var gateErr error
	ro := o
	ro.seconds /= float64(o.rounds)
	for r := 0; r < o.rounds; r++ {
		e, err := setup(wl, ro, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, e.setupSeconds)
		ph := timedPhase(e, ro, nil)
		if err := gate(e, ph); err != nil && gateErr == nil {
			gateErr = fmt.Errorf("round %d: %w", r+1, err)
		}
		fmt.Fprintf(w, "round %d: setup_s=%.4f\n", r+1, e.setupSeconds)
		summarize(w, ph)
		wt, wp := ph.windows(max(1, int(math.Round(ph.elapsed.Seconds()))))
		fmt.Fprintf(w, "window commit_tps=%.1f\nwindow txn_p50_ms=%.3f\n", wt, wp)
		tps, p50 = append(tps, wt...), append(p50, wp...)
		p99s = append(p99s, quantile(ph.all(-1), 0.99))
		attempted += ph.logicalTxns()
		failed += ph.failedTxns()
		// ph is dead from here on, so its records (benchmark data, not the
		// cluster's) are not counted in the live heap.
		heap = append(heap, liveHeapMB(e))
		e.close()
	}
	if gateErr != nil {
		fmt.Fprintln(w, "correctness gate FAILED:", gateErr)
	}
	fmt.Fprintf(w, "rounds setup_s=%.4f txn_p99_ms=%.3f live_heap_mb=%.2f\n", setups, p99s, heap)
	return &report{
		Correct:   gateErr == nil,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":      {median(setups), "s"},
			"commit_tps":   {median(tps), "1/s"},
			"txn_p50_ms":   {median(p50), "ms"},
			"txn_p99_ms":   {median(p99s), "ms"},
			"live_heap_mb": {median(heap), "MB"},
		},
	}, nil
}

// summarize prints the per-kind latency split, the attempt accounting and
// the typed-error breakdown of a timed phase.
func summarize(w io.Writer, ph *phase) {
	fmt.Fprintf(w, "elapsed_s=%.3f txns=%d committed=%d failed=%d attempts=%d mismatches=%d\n",
		ph.elapsed.Seconds(), ph.logicalTxns(), ph.committedTxns(), ph.failedTxns(), ph.attempts(), ph.mismatches())
	for k := kind(0); k < numKinds; k++ {
		lat := ph.all(k)
		if len(lat) == 0 {
			continue
		}
		p99 := "n/a (fewer than 1000 samples)"
		if len(lat) >= 1000 {
			p99 = fmt.Sprintf("%.3f", quantile(lat, 0.99))
		}
		fmt.Fprintf(w, "%s: n=%d p50_ms=%.3f p99_ms=%s\n", k, len(lat), quantile(lat, 0.5), p99)
	}
	aborts := ph.aborts()
	var classes []string
	for c := range aborts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var parts []string
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s=%d", c, aborts[c]))
	}
	fmt.Fprintf(w, "aborted attempts by error: %s\n", strings.Join(parts, " "))
	if msg := ph.firstMismatch(); msg != "" {
		fmt.Fprintln(w, "first mismatch:", msg)
	}
}
