// Command perfbench is the repository benchmark.  It builds the online
// trainer or the replicated fleet through their public entry points, drives
// them over loopback HTTP with inputs generated from the workload seed,
// checks every output, and prints one JSON line of metrics.  See README.md.
//
//	perfbench --workload serve_mixed --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"fekf/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options sizes one run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// setups is how many backends an untraced run builds; setup_s is the
	// lower quartile of their set-up times and the last one is measured.
	setups int
	// fitSteps is the length of the deterministic fit the ABE metrics
	// read; fitFrames the labelled frames preloaded for it.
	fitSteps, fitFrames int
	// traceOut, when set, receives the traced run's spans in Chrome trace
	// format.
	traceOut string
}

func defaultOptions() options {
	return options{seed: 1, seconds: 30 * time.Second, setups: 7, fitSteps: 64, fitFrames: 48}
}

func main() {
	o := defaultOptions()
	name := flag.String("workload", "", "serve_mixed | fleet_repl | fleet_pshard")
	flag.Int64Var(&o.seed, "seed", o.seed, "workload seed: all inputs are generated from it")
	seconds := flag.Float64("seconds", o.seconds.Seconds(), "measured time of one run")
	traced := flag.Int("trace", 0, "1 runs with the program's tracer on and prints per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with --trace 1, write all spans to this Chrome trace file")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	o.seconds = time.Duration(*seconds * float64(time.Second))
	o.trace = *traced == 1

	res, failures, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// writeChromeTrace writes the program's and the benchmark's step traces.
func writeChromeTrace(path string, tracers ...*obs.Tracer) error {
	var steps []obs.StepTrace
	for _, t := range tracers {
		steps = append(steps, t.Last(0)...)
	}
	raw, err := obs.ChromeTrace(steps).MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
