package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// fig2fWorkload runs experiments.Fig2f, the throughput-vs-locality
// sweep: fig2f_saturated simulates every point, fluid_sweep solves the
// fluid model only (RunSim=false) at a larger N.
type fig2fWorkload struct {
	cfg experiments.Fig2fConfig
	xs  []float64
	// golden holds fluid_sweep's committed θ per point; the fluid model
	// is seed-free, so the values never change with the seed.
	golden  []float64
	periods []int // schedule period per point, from setup
	corrupt func(any)
}

func newFig2f(seed uint64, tiny bool, corrupt func(any)) *fig2fWorkload {
	cfg := experiments.DefaultFig2fConfig()
	if tiny {
		// Small flows and backlogs saturate a 32-node fabric within the
		// short warm-up, so the fluid-agreement check still applies.
		cfg = experiments.Fig2fConfig{N: 32, Nc: 4, Step: 0.5, RunSim: true,
			WarmupSlots: 5000, MeasureSlots: 5000, Backlog: 64, SizeCap: 64}
	}
	cfg.Seed = seed
	return &fig2fWorkload{cfg: cfg, xs: localityGrid(cfg.Step), corrupt: corrupt}
}

func newFluidSweep(tiny bool, corrupt func(any)) *fig2fWorkload {
	cfg := experiments.Fig2fConfig{N: 512, Nc: 16, Step: 0.25, SizeCap: 1333}
	golden := goldenTheta512
	if tiny {
		cfg.N, cfg.Nc, cfg.Step = 32, 4, 0.5
		golden = goldenTheta32
	}
	return &fig2fWorkload{cfg: cfg, xs: localityGrid(cfg.Step), golden: golden, corrupt: corrupt}
}

// localityGrid is Fig2f's x grid: x_i = i·step, ending at exactly 1.
func localityGrid(step float64) []float64 {
	var xs []float64
	for i := 0; ; i++ {
		x := float64(i) * step
		if x >= 1 {
			return append(xs, 1)
		}
		xs = append(xs, x)
	}
}

func (w *fig2fWorkload) workers() (int, int) {
	sw := sweep.Config{Concurrency: w.cfg.SweepWorkers}
	if !w.cfg.RunSim {
		return sw.Workers(len(w.xs)), 0
	}
	return sw.Workers(len(w.xs)), sw.SimWorkers(len(w.xs), w.cfg.Workers)
}

// setup builds every point's SORN into cache; Fig2f itself builds the
// traffic matrices and simulators inside the measured run.
func (w *fig2fWorkload) setup(cache *core.BuildCache, tr *tracer) error {
	w.periods = w.periods[:0]
	for _, x := range w.xs {
		t0 := time.Now()
		nw, err := cache.SORN(w.cfg.N, w.cfg.Nc, x)
		tr.done(layerBuild, t0)
		if err != nil {
			return err
		}
		w.periods = append(w.periods, nw.Schedule.Period())
	}
	return nil
}

func (w *fig2fWorkload) run() outcome {
	out := outcome{ops: len(w.xs)}
	pts, err := experiments.Fig2f(w.cfg)
	if err != nil {
		out.failAll(err)
		return out
	}
	if w.corrupt != nil {
		w.corrupt(pts)
	}
	w.check(pts, &out)
	return out
}

// check verifies every point and digests the sweep. A simulated point
// must agree with its fluid θ within the oracle's finite-horizon budget;
// a fluid-only point must equal its golden θ to 1e-12.
func (w *fig2fWorkload) check(pts []experiments.Fig2fPoint, out *outcome) {
	if len(pts) != len(w.xs) {
		out.failAll(fmt.Errorf("sweep returned %d points, want %d", len(pts), len(w.xs)))
		return
	}
	d := newDigester()
	for i, p := range pts {
		d.fig2fPoint(p)
		switch {
		case p.X != w.xs[i]:
			out.fail("point %d: x=%v, want %v", i, p.X, w.xs[i])
		case w.golden != nil && !(math.Abs(p.Fluid-w.golden[i]) <= 1e-12):
			out.fail("x=%v: fluid θ=%.17g, golden %.17g", p.X, p.Fluid, w.golden[i])
		case w.cfg.RunSim && !relClose(p.Sim, p.Fluid, simBudget(w.periods[i], w.cfg.MeasureSlots)):
			out.fail("x=%v: simulated θ=%v vs fluid θ=%v exceeds budget %v", p.X, p.Sim, p.Fluid,
				simBudget(w.periods[i], w.cfg.MeasureSlots))
		}
		if w.cfg.RunSim {
			// Sim is delivered cells per node per measured slot.
			out.cells += int64(math.Round(p.Sim * float64(w.cfg.N) * float64(w.cfg.MeasureSlots)))
			out.slots += w.cfg.WarmupSlots + w.cfg.MeasureSlots
		}
	}
	out.digest = d.sum()
}

// replica repeats Fig2f's point loop: the same sweep seed and per-point
// stream split, shared builds, pooled simulators, with each layer call
// timed and an observer attached for the slot-phase split.
func (w *fig2fWorkload) replica(tr *tracer) outcome {
	cfg := w.cfg
	out := outcome{ops: len(w.xs)}
	size := workload.NewCapped(workload.WebSearch(), cfg.SizeCap)
	sw := sweep.Config{Concurrency: cfg.SweepWorkers, Seed: cfg.Seed}
	pool := core.NewSimPool(sw.Workers(len(w.xs)))
	points := make([]tracer, len(w.xs))
	pts, err := sweep.Run(sw, len(w.xs), func(p sweep.Point) (experiments.Fig2fPoint, error) {
		t := &points[p.Index]
		start := time.Now()
		pt, err := w.replicaPoint(p, sw, pool, size, t)
		t.pointNS = append(t.pointNS, int64(time.Since(start)))
		return pt, err
	})
	for i := range points {
		tr.merge(&points[i])
	}
	tr.workers = sw.Workers(len(w.xs))
	if err != nil {
		out.failAll(err)
		return out
	}
	w.check(pts, &out)
	return out
}

func (w *fig2fWorkload) replicaPoint(p sweep.Point, sw sweep.Config, pool *core.SimPool,
	size workload.SizeDist, t *tracer) (experiments.Fig2fPoint, error) {
	cfg := w.cfg
	x := w.xs[p.Index]
	t0 := time.Now()
	nw, err := core.SharedBuilds.SORN(cfg.N, cfg.Nc, x)
	t.done(layerBuild, t0)
	if err != nil {
		return experiments.Fig2fPoint{}, err
	}
	t0 = time.Now()
	tm, err := nw.LocalityMatrix(x)
	t.done(layerWorkload, t0)
	if err != nil {
		return experiments.Fig2fPoint{}, err
	}
	t0 = time.Now()
	fl, err := nw.Throughput(tm)
	t.done(layerFluid, t0)
	if err != nil {
		return experiments.Fig2fPoint{}, err
	}
	pt := experiments.Fig2fPoint{X: x, Theory: model.SORNThroughput(x), Fluid: fl.Theta}
	if !cfg.RunSim {
		return pt, nil
	}
	ob := phaseObserver()
	opts := core.SimOptions{
		Seed:          p.RNG.Uint64(),
		WarmupSlots:   cfg.WarmupSlots,
		MeasureSlots:  cfg.MeasureSlots,
		TargetBacklog: cfg.Backlog,
		Workers:       sw.SimWorkers(len(w.xs), cfg.Workers),
		Obs:           ob,
	}
	t0 = time.Now()
	sim, err := pool.Acquire(p.Worker, nw, opts)
	t.done(layerSimSetup, t0)
	if err != nil {
		return experiments.Fig2fPoint{}, err
	}
	t0 = time.Now()
	st, err := core.RunSaturatedOn(sim, opts, tm, size)
	t.done(layerSaturated, t0)
	if err != nil {
		return experiments.Fig2fPoint{}, err
	}
	stepped := cfg.WarmupSlots + cfg.MeasureSlots
	t.simSlots += stepped
	// Inject has no entry point inside RunSaturatedOn, and its 1-in-16
	// sample cannot be scaled: slot 0, the backlog fill, is always sampled.
	// The other phases sample steady slots, so inject is the call's time
	// left after the scaled land, transmit and merge estimates; it also
	// holds the few per-slot steps outside the four phases.
	t.addPhases(ob, stepped)
	sp := satPoint{index: p.Index, seed: opts.Seed, steppedSlots: stepped,
		measuredSlots: st.MeasuredSlots, injectedCells: st.InjectedCells,
		injectNS: max(float64(t.ns[layerSaturated])-t.landNS-t.transmitNS-t.mergeNS, 0)}
	t.injectNS += sp.injectNS
	t.saturated = append(t.saturated, sp)
	t.addStats(st, cfg.N)
	t.backlogPeak = max(t.backlogPeak, sim.Backlog())
	pt.Sim = st.Throughput(cfg.N)
	return pt, nil
}

// probe measures fluid and simulator-build allocations one call at a
// time and times each saturated point's slot-0 backlog fill with a
// two-slot run of the same point (same seed, so the same fill) to finish
// the per-cell inject cost.
func (w *fig2fWorkload) probe(tr *tracer) error {
	cfg := w.cfg
	for _, x := range w.xs {
		nw, err := core.SharedBuilds.SORN(cfg.N, cfg.Nc, x)
		if err != nil {
			return err
		}
		tm, err := nw.LocalityMatrix(x)
		if err != nil {
			return err
		}
		a0 := heapAllocated()
		if _, err := nw.Throughput(tm); err != nil {
			return err
		}
		tr.fluidAlloc += heapAllocated() - a0
	}
	workers, simWorkers := w.workers()
	pool := core.NewSimPool(workers)
	size := workload.NewCapped(workload.WebSearch(), cfg.SizeCap)
	for _, sp := range tr.saturated {
		x := w.xs[sp.index]
		nw, err := core.SharedBuilds.SORN(cfg.N, cfg.Nc, x)
		if err != nil {
			return err
		}
		tm, err := nw.LocalityMatrix(x)
		if err != nil {
			return err
		}
		opts := core.SimOptions{Seed: sp.seed, WarmupSlots: 1, MeasureSlots: 1,
			TargetBacklog: cfg.Backlog, Workers: simWorkers}
		a0 := heapAllocated()
		if _, err := pool.Acquire(sp.index%workers, nw, opts); err != nil {
			return err
		}
		tr.simSetupAlloc += heapAllocated() - a0
		ob := phaseObserver()
		opts.Obs = ob
		sim, err := pool.Acquire(sp.index%workers, nw, opts)
		if err != nil {
			return err
		}
		if _, err := core.RunSaturatedOn(sim, opts, tm, size); err != nil {
			return err
		}
		tr.finishSaturated(sp, fillSample(ob))
	}
	return nil
}
