package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// benchWorkload is one benchmark workload: a fixed input built from the seed
// and run to completion.
type benchWorkload interface {
	// setup builds the inputs from scratch — network builds into cache,
	// traffic matrices, fault plans, simulators — timing each layer call
	// on tr.
	setup(cache *core.BuildCache, tr *tracer) error
	// run executes one untraced repetition through the public entry
	// point the workload is defined by, and checks its output.
	run() outcome
	// replica repeats run's work as individual public layer calls, each
	// timed on tr. Its digest must equal run's.
	replica(tr *tracer) outcome
	// probe measures, one call at a time, the heap bytes the replica's
	// fluid solves and simulator builds allocate (sweep points run
	// concurrently, so a heap delta around one call would count its
	// neighbours' allocations too), and finishes any estimate that needs
	// a serial measurement.
	probe(tr *tracer) error
	// workers reports the resolved sweep and per-simulation worker
	// counts (0 sim workers: the workload simulates nothing).
	workers() (sweep, sim int)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fig2f_saturated", "openloop_sparse", "avail_churn", "fluid_sweep"}

func workloadList() string { return strings.Join(workloadNames, ", ") }

// newWorkload builds the named workload's configuration for a seed. tiny
// selects the self-test sizes.
func newWorkload(name string, seed uint64, tiny bool, corrupt func(any)) (benchWorkload, error) {
	switch name {
	case "fig2f_saturated":
		return newFig2f(seed, tiny, corrupt), nil
	case "openloop_sparse":
		return newOpenLoop(seed, tiny, corrupt), nil
	case "avail_churn":
		return newAvail(seed, tiny, corrupt), nil
	case "fluid_sweep":
		return newFluidSweep(tiny, corrupt), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadList())
}
