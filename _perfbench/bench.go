package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
)

// setupSlice is how long the extra cold set-up passes before each
// untraced repetition run (at least one pass). Spreading set-up passes
// across the run, between the repetitions, exposes them to the same host
// conditions as wall_s; a block of passes at start-up would see only the
// first second.
const setupSlice = 100 * time.Millisecond

// rep is one measured repetition.
type rep struct {
	out   outcome
	wall  float64 // s
	cpu   float64 // process CPU seconds, user + system
	alloc uint64  // heap bytes allocated
	tr    *tracer // the replica's layer timings; unused untraced
}

// repeat runs fn as measured repetitions until seconds have passed, at
// least once. before, if set, runs ahead of each repetition, untimed.
// Each repetition gets a fresh tracer and starts from a collected heap.
func repeat(seconds float64, before func() error, fn func(tr *tracer) outcome) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < seconds {
		if before != nil {
			if err := before(); err != nil {
				return nil, err
			}
		}
		r := rep{tr: &tracer{}}
		runtime.GC()
		a0 := heapAllocated()
		c0 := cpuSeconds()
		t0 := time.Now()
		r.out = fn(r.tr)
		r.wall = time.Since(t0).Seconds()
		r.cpu = cpuSeconds() - c0
		r.alloc = heapAllocated() - a0
		reps = append(reps, r)
	}
	return reps, nil
}

// setupPass times one cold set-up of wl into cache.
func setupPass(wl benchWorkload, cache *core.BuildCache, tr *tracer) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	err := wl.setup(cache, tr)
	return time.Since(t0).Seconds(), err
}

// tally counts operations and failures over reps. Every repetition uses
// the same inputs, so its digest must equal want; one that differs has
// all its operations counted failed.
func tally(label string, reps []rep, want string, w io.Writer) (attempted, failed int) {
	for i, r := range reps {
		attempted += r.out.ops
		f := r.out.failed
		if r.out.digest != want && f < r.out.ops {
			fmt.Fprintf(w, "check %s rep %d: digest %s differs from %s\n", label, i, r.out.digest, want)
			f = r.out.ops
		}
		failed += f
		for _, e := range r.out.errs {
			fmt.Fprintf(w, "check %s rep %d: %s\n", label, i, e)
		}
	}
	return attempted, failed
}

// medianRep returns the repetition with the median wall time.
func medianRep(reps []rep) rep {
	s := append([]rep(nil), reps...)
	sort.Slice(s, func(i, j int) bool { return s[i].wall < s[j].wall })
	return s[len(s)/2]
}

func walls(reps []rep) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = r.wall
	}
	return xs
}

// run executes one benchmark process: set-up, measured repetitions,
// checks, and the metric report on w. It returns an error only when the
// workload cannot be set up or probed; failed checks are reported in the
// result.
func run(o options, w io.Writer) (result, error) {
	wl, err := newWorkload(o.workload, o.seed, o.tiny, o.corrupt)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)

	// The first set-up pass, cold in a fresh process, fills the shared
	// build cache the measured runs use; traced, it is the traced pass.
	setupTr := &tracer{}
	first, err := setupPass(wl, core.SharedBuilds, setupTr)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	setupWalls := []float64{first}
	sweepWorkers, simWorkers := wl.workers()
	printContext(w, o, sweepWorkers, simWorkers)

	untracedRun := func(*tracer) outcome { return wl.run() }
	if !o.trace {
		// More cold passes, each on a throwaway instance with a fresh
		// build cache, so the measured instance keeps its own state.
		morePasses := func() error {
			start := time.Now()
			for n := 0; n == 0 || time.Since(start) < setupSlice; n++ {
				extra, err := newWorkload(o.workload, o.seed, o.tiny, nil)
				if err != nil {
					return err
				}
				s, err := setupPass(extra, core.NewBuildCache(), &tracer{})
				if err != nil {
					return fmt.Errorf("%s set-up: %w", o.workload, err)
				}
				setupWalls = append(setupWalls, s)
			}
			return nil
		}
		reps, err := repeat(o.seconds, morePasses, untracedRun)
		if err != nil {
			return result{}, err
		}
		attempted, failed := tally("untraced", reps, reps[0].out.digest, w)
		var allocs []float64
		for _, r := range reps {
			allocs = append(allocs, float64(r.alloc)/(1<<20))
		}
		fmt.Fprintf(w, "digest %s %s (%d repetitions, %d set-up passes)\n",
			o.workload, reps[0].out.digest, len(reps), len(setupWalls))
		printReps(w, "untraced", reps)
		fmt.Fprint(w, "reps setup_s")
		for _, s := range setupWalls {
			fmt.Fprintf(w, " %.4f", s)
		}
		fmt.Fprintln(w)
		printRates(w, medianRep(reps), attempted, failed)
		return emit(w, endToEnd, map[string]float64{
			"wall_s":     median(walls(reps)),
			"setup_s":    median(setupWalls),
			"alloc_mb":   median(allocs),
			"max_rss_mb": maxRSSMB(),
		}, attempted, failed)
	}

	// Traced: untraced repetitions for half the time, then traced
	// replicas for the other half. Every replica must reproduce the
	// untraced digest; the median replica's layer timings are reported.
	untraced, err := repeat(o.seconds/2, nil, untracedRun)
	if err != nil {
		return result{}, err
	}
	want := untraced[0].out.digest
	attempted, failed := tally("untraced", untraced, want, w)
	traced, err := repeat(o.seconds/2, nil, wl.replica)
	if err != nil {
		return result{}, err
	}
	a, f := tally("traced", traced, want, w)
	attempted += a
	failed += f
	fmt.Fprintf(w, "digest %s %s (%d untraced, %d traced repetitions)\n", o.workload, want, len(untraced), len(traced))
	printReps(w, "untraced", untraced)
	printReps(w, "traced", traced)
	medU, medT := medianRep(untraced), medianRep(traced)
	// sim_*_per_s and failed_frac are printed once, by emit, below.
	if err := wl.probe(medT.tr); err != nil {
		return result{}, fmt.Errorf("%s probe: %w", o.workload, err)
	}
	vals := layerMetrics(setupTr, medT.tr, medT.wall, median(walls(untraced)))
	vals["sim_cells_per_s"] = ratio(float64(medU.out.cells), medU.wall)
	vals["sim_slots_per_s"] = ratio(float64(medU.out.slots), medU.wall)
	vals["failed_frac"] = ratio(float64(failed), float64(attempted))
	return emit(w, perLayer, vals, attempted, failed)
}

// printRates reports the end-to-end metrics that are not gated: the
// simulated work rates (absent on a workload that simulates nothing) and
// the failed fraction.
func printRates(w io.Writer, med rep, attempted, failed int) {
	if med.out.slots == 0 {
		fmt.Fprintf(w, "metric %-26s n/a (no simulation)\n", "sim_cells_per_s")
		fmt.Fprintf(w, "metric %-26s n/a (no simulation)\n", "sim_slots_per_s")
	} else {
		fmt.Fprintf(w, "metric %-26s %.6g cells/s\n", "sim_cells_per_s", float64(med.out.cells)/med.wall)
		fmt.Fprintf(w, "metric %-26s %.6g slots/s\n", "sim_slots_per_s", float64(med.out.slots)/med.wall)
	}
	fmt.Fprintf(w, "metric %-26s %.6g ratio\n", "failed_frac", ratio(float64(failed), float64(attempted)))
}

// heapAllocated returns the cumulative bytes allocated on the heap.
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// cpuSeconds is the process's CPU time so far, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// printReps lists every repetition's wall and CPU seconds.
func printReps(w io.Writer, label string, reps []rep) {
	fmt.Fprintf(w, "reps %s wall_s", label)
	for _, r := range reps {
		fmt.Fprintf(w, " %.4f", r.wall)
	}
	fmt.Fprint(w, " cpu_s")
	for _, r := range reps {
		fmt.Fprintf(w, " %.4f", r.cpu)
	}
	fmt.Fprintln(w)
}

// maxRSSMB is the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
