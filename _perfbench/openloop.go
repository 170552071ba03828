package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// openLoopWorkload runs core.RunOpenLoopOn: sparse Poisson web-search
// flows on a large SORN: a few cells move per slot through a 1M-fifo VOQ
// slab, and every slot still pays the shard barriers.
type openLoopWorkload struct {
	n, nc   int
	x, load float64
	slots   int64
	sizeCap int
	opts    core.SimOptions
	corrupt func(any)

	nw         *core.Network
	tm         *workload.Matrix
	size       workload.SizeDist
	pool       *core.SimPool
	simWorkers int
}

func newOpenLoop(seed uint64, tiny bool, corrupt func(any)) *openLoopWorkload {
	w := &openLoopWorkload{n: 1024, nc: 32, x: 0.56, load: 0.002, slots: 200000, sizeCap: 1333,
		opts: core.SimOptions{Seed: seed}, corrupt: corrupt}
	if tiny {
		w.n, w.nc, w.load, w.slots = 64, 8, 0.01, 5000
	}
	return w
}

func (w *openLoopWorkload) workers() (int, int) { return 1, w.simWorkers }

// setup builds the network, the traffic matrix and the simulator; each
// repetition then only resets the pooled simulator.
func (w *openLoopWorkload) setup(_ *core.BuildCache, tr *tracer) error {
	t0 := time.Now()
	nw, err := core.NewSORN(w.n, w.nc, w.x)
	tr.done(layerBuild, t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	tm, err := nw.LocalityMatrix(w.x)
	size := workload.NewCapped(workload.WebSearch(), w.sizeCap)
	tr.done(layerWorkload, t0)
	if err != nil {
		return err
	}
	pool := core.NewSimPool(1)
	t0 = time.Now()
	sim, err := pool.Acquire(0, nw, w.opts)
	tr.done(layerSimSetup, t0)
	if err != nil {
		return err
	}
	w.nw, w.tm, w.size, w.pool, w.simWorkers = nw, tm, size, pool, sim.Workers()
	return nil
}

func (w *openLoopWorkload) run() outcome {
	out := outcome{ops: 1}
	sim, err := w.pool.Acquire(0, w.nw, w.opts)
	if err != nil {
		out.failAll(err)
		return out
	}
	st, err := core.RunOpenLoopOn(sim, w.opts, w.tm, w.size, w.load, w.slots)
	if err != nil {
		out.failAll(err)
		return out
	}
	w.check(sim, st, &out)
	return out
}

// check verifies cell conservation and digests the stats. The stats are
// the pooled simulator's own, so they are digested before the next
// repetition resets it.
func (w *openLoopWorkload) check(sim *netsim.Sim, st *netsim.Stats, out *outcome) {
	if w.corrupt != nil {
		w.corrupt(st)
	}
	if err := conserved(st, sim.Backlog(), int64(sim.InFlight())); err != nil {
		out.fail("%v", err)
	}
	if st.MeasuredSlots != w.slots {
		out.fail("measured %d slots, want %d", st.MeasuredSlots, w.slots)
	}
	d := newDigester()
	d.stats(st)
	out.digest = d.sum()
	out.cells = st.DeliveredCells
	out.slots = st.MeasuredSlots
}

// replica repeats RunOpenLoopOn — the same flow trace (seed+1) and the
// same per-slot order: arrivals, Step, fast-forward to the next arrival —
// timing every InjectFlow, Step and FastForwardTo call.
func (w *openLoopWorkload) replica(tr *tracer) outcome {
	out := outcome{ops: 1}
	start := time.Now()
	ob := phaseObserver()
	opts := w.opts
	opts.Obs = ob
	t0 := time.Now()
	sim, err := w.pool.Acquire(0, w.nw, opts)
	tr.done(layerSimSetup, t0)
	if err != nil {
		out.failAll(err)
		return out
	}
	t0 = time.Now()
	gen, err := workload.NewPoissonFlows(w.tm, w.size, w.load, opts.Seed+1)
	if err != nil {
		out.failAll(err)
		return out
	}
	flows := gen.Window(0, w.slots)
	tr.done(layerWorkload, t0)
	tr.flows += int64(len(flows))
	sim.StartMeasuring()
	driveOpenLoop(sim, flows, w.slots, tr)
	tr.addPhases(ob, tr.calls[layerStep])
	st := sim.Stats()
	tr.addStats(st, w.n)
	tr.workers = 1
	tr.pointNS = append(tr.pointNS, int64(time.Since(start)))
	w.check(sim, st, &out)
	return out
}

// driveOpenLoop is netsim's RunOpenLoop loop issued from here, with each
// call timed on tr.
func driveOpenLoop(sim *netsim.Sim, flows []workload.Flow, until int64, tr *tracer) {
	i := 0
	for sim.Slot() < until {
		for i < len(flows) && flows[i].Arrival <= sim.Slot() {
			f := flows[i]
			tr.inject(sim, f.Src, f.Dst, f.Size)
			i++
		}
		tr.step(sim)
		next := until
		if i < len(flows) && flows[i].Arrival < next {
			next = flows[i].Arrival
		}
		tr.fastForward(sim, next)
	}
}

// probe measures the heap bytes of building the simulator from scratch.
func (w *openLoopWorkload) probe(tr *tracer) error {
	a0 := heapAllocated()
	_, err := core.NewSimPool(1).Acquire(0, w.nw, w.opts)
	tr.simSetupAlloc += heapAllocated() - a0
	return err
}
