package controlplane

import (
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// plannedQ is the q PlanNext hands rebuildOnCliques for a plan at
// locality x.
func plannedQ(c *Controller, x float64) float64 {
	return math.Min(model.SORNQ(x), c.MaxQ)
}

// assertFreshBuild checks that p.Built is what an uncached
// rebuildOnCliques makes of the plan's inputs.
func assertFreshBuild(t *testing.T, c *Controller, p *Plan) {
	t.Helper()
	fresh, err := rebuildOnCliques(p.Cliques, plannedQ(c, p.X))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Built, fresh) {
		t.Fatalf("plan at x=%v carries a build (q=%v) unlike a fresh rebuild (q=%v)",
			p.X, p.Built.Config.Q, fresh.Config.Q)
	}
}

func planApply(t *testing.T, c *Controller) *Plan {
	t.Helper()
	p, err := c.PlanNext()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(p); err != nil {
		t.Fatal(err)
	}
	return p
}

func observe(t *testing.T, c *Controller, cl *schedule.Cliques, x float64) {
	t.Helper()
	tm, err := workload.Locality(cl, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(tm); err != nil {
		t.Fatal(err)
	}
}

// TestPlanMemoIsPureFunctionCache: a steady-state epoch reuses the last
// build, and that build is exactly what a fresh rebuildOnCliques would
// make; a new q or a new partition rebuilds.
func TestPlanMemoIsPureFunctionCache(t *testing.T) {
	c, err := NewController(32, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	eq, _ := schedule.EqualCliques(32, 4)
	observe(t, c, eq, 0.5)
	p1 := planApply(t, c)
	assertFreshBuild(t, c, p1)

	// Same estimate: a memo hit, diffing to no change.
	observe(t, c, eq, 0.5)
	p2 := planApply(t, c)
	if p2.Built != p1.Built {
		t.Fatal("unchanged (cliques, q) rebuilt the schedule")
	}
	assertFreshBuild(t, c, p2)
	if p2.Update == nil || p2.Update.TotalSlotChanges() != 0 {
		t.Fatal("memo hit must apply as an unchanged schedule")
	}

	// A new q rebuilds.
	observe(t, c, eq, 0.8)
	p3 := planApply(t, c)
	if p3.Built == p2.Built || math.Float64bits(p3.Built.Config.Q) == math.Float64bits(p2.Built.Config.Q) {
		t.Fatal("a change in q reused the previous build")
	}
	assertFreshBuild(t, c, p3)

	// A new partition at the same locality rebuilds.
	planted := make([]int, 32)
	for i := range planted {
		planted[i] = i % 4
	}
	plantedCl, err := schedule.NewCliques(planted)
	if err != nil {
		t.Fatal(err)
	}
	c.Recluster = true
	observe(t, c, plantedCl, 0.8)
	p4 := planApply(t, c)
	if p4.Built == p3.Built || p4.Built.Cliques.Equal(p3.Built.Cliques) {
		t.Fatal("a change in cliques reused the previous build")
	}
	if x := p4.X; math.Abs(x-0.8) > 1e-9 {
		t.Fatalf("reclustered locality %v, want the planted 0.8", x)
	}
	assertFreshBuild(t, c, p4)
	// Reclustering again yields a new, equal partition: still a hit.
	observe(t, c, plantedCl, 0.8)
	if p5 := planApply(t, c); p5.Built != p4.Built {
		t.Fatal("an equal reclustered partition rebuilt the schedule")
	}
}

// TestPlanMemoAfterFallbackRecover: after a fallback the incumbent is the
// fallback build, so recovery must install the planner's own build for
// its inputs — a memo that consulted the incumbent would hand back the
// fallback and leave the fabric on it.
func TestPlanMemoAfterFallbackRecover(t *testing.T) {
	r, cl := newResilient(t)
	r.StaleEpochs = 1
	r.RecoverAfter = 2

	observeLocality(t, r, cl, 0.5)
	d, err := r.Decide()
	if err != nil || d.Degraded {
		t.Fatalf("healthy first epoch: %+v, %v", d, err)
	}
	normal := d.Plan.Built

	for !r.Degraded() { // no observations: the estimate goes stale
		if _, err := r.Decide(); err != nil {
			t.Fatal(err)
		}
	}
	fb := r.C.Current()
	if fb == normal {
		t.Fatal("fallback not installed")
	}
	for r.Degraded() {
		observeLocality(t, r, cl, 0.5)
		if d, err = r.Decide(); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Changed || d.Plan.Built == fb || r.C.Current() != d.Plan.Built {
		t.Fatal("recovery did not reinstall the demand-aware schedule")
	}
	assertFreshBuild(t, r.C, d.Plan)
	if !reflect.DeepEqual(d.Plan.Built, normal) {
		t.Fatal("recovered schedule differs from the pre-fallback one at the same estimate")
	}
}

func hashSchedule(s *matching.Schedule) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int) {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash writes never fail
	}
	put(s.N)
	for _, m := range s.Slots {
		put(len(m))
		for _, d := range m {
			put(d)
		}
	}
	return h.Sum64()
}

// TestPlanMemoSurvivesSimulation: builds are shared between plans, so
// the simulator must only read the schedule it is reconfigured onto.
func TestPlanMemoSurvivesSimulation(t *testing.T) {
	c, err := NewController(32, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	eq, _ := schedule.EqualCliques(32, 4)
	observe(t, c, eq, 0.2)
	p0 := planApply(t, c)
	sim, err := netsim.New(netsim.Config{Schedule: p0.Built.Schedule, Router: routing.NewSORN(p0.Built),
		SlotNS: 100, PropNS: 500, Seed: 3, LatencySampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	observe(t, c, eq, 0.7)
	p := planApply(t, c)
	before := hashSchedule(p.Built.Schedule)
	sim.StartMeasuring()
	if err := sim.Reconfigure(p.Built.Schedule, routing.NewSORN(p.Built)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		sim.InjectFlow(i%32, (i*7+3)%32, 1+i%5)
		sim.Step()
	}
	if sim.Stats().DeliveredCells == 0 {
		t.Fatal("simulation delivered nothing")
	}
	if hashSchedule(p.Built.Schedule) != before {
		t.Fatal("simulation mutated the installed schedule")
	}
	observe(t, c, eq, 0.7)
	p2 := planApply(t, c)
	if p2.Built != p.Built || hashSchedule(p2.Built.Schedule) != before {
		t.Fatal("memoized schedule changed across the simulation")
	}
	assertFreshBuild(t, c, p2)
}

// TestSteadyEpochAllocationBound is a host-independent allocation guard
// on the replanning loop: a steady-state PlanNext+Apply epoch at 128
// nodes allocates the plan and its (empty) schedule diff, not a rebuilt,
// cloned and re-validated schedule.
func TestSteadyEpochAllocationBound(t *testing.T) {
	c, err := NewController(128, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	eq, _ := schedule.EqualCliques(128, 8)
	tm, err := workload.Locality(eq, 0.56)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Observe(tm); err != nil {
		t.Fatal(err)
	}
	planApply(t, c) // first build
	planApply(t, c) // first diff against it
	const epochs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < epochs; i++ {
		planApply(t, c)
	}
	runtime.ReadMemStats(&after)
	perEpoch := (after.TotalAlloc - before.TotalAlloc) / epochs
	// The empty diff is ~22 KiB at 128 nodes (its n×n circuit table,
	// per-node change counts and neighbor lists); a rebuild adds several
	// times that.
	const bound = 32 << 10
	t.Logf("steady-state epoch: %d B", perEpoch)
	if perEpoch > bound {
		t.Fatalf("steady-state epoch allocates %d B, bound %d B", perEpoch, bound)
	}
}
