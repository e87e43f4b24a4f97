// Command perfbench is the repository's benchmark. It runs one workload
// per process against the Compadres ORB and prints, as its last line, one
// JSON object with the run's correctness, call counts and metrics: the
// end-to-end set by default, the per-layer set with --trace 1.
//
//	perfbench --workload lockstep --seed 1 --seconds 10 --trace 0
//
// The workloads are lockstep (the paper's Fig. 11 round trip), pipelined
// and pipelined_mc (16 calls in flight over loopback TCP on one core and
// on every core) and surge (a tiered open loop against overload control).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload: lockstep, pipelined, pipelined_mc or surge")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for payload sizes, contents and arrival times")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traced == 1

	res, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Fprintf(os.Stderr, "perfbench %s: %s\n", o.workload, n)
	}
	out, err := json.Marshal(report(res))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Println(string(out))
	// Exit without waiting: a call wedged past the grace period has
	// already been counted as failed and must not hold the run open.
	os.Exit(0)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func report(r *result) reportJSON {
	out := reportJSON{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = metricJSON{m.value, m.unit}
	}
	return out
}
