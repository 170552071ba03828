// Command perfbench is the repository's end-to-end benchmark. One
// process runs one workload — a fixed input built from the seed and run
// to completion through the public packages — checks every output, and
// prints the metrics as its last line of standard output:
//
//	bash _perfbench/run.sh --workload fig2f_saturated --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it repeats the workload for --seconds and reports the
// end-to-end host-time metrics (medians over the repetitions). With
// --trace 1 it runs the untraced workload for half the time and a traced
// replica — the same work issued as public layer calls from this
// package, each one timed — for the other half, and reports the
// per-layer metrics. The replica must reproduce the untraced run's
// output digest exactly. METRICS.md describes the workloads and what
// each metric should move.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// options configure one benchmark process.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny selects the self-test input sizes instead of the benchmark's.
	tiny bool
	// corrupt, when set, is applied to every repetition's raw result
	// before it is checked (the self-test's fault injection).
	corrupt func(any)
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadList())
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds (at least one repetition runs)")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced replica")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	o.trace = *traceFlag == 1
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if _, err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
