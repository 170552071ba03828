package netsim

import (
	"testing"
	"unsafe"

	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/routing"
)

// TestCellIs16Bytes pins the cell layout every VOQ push, pop, and
// delay-line write copies.
func TestCellIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got != 16 {
		t.Fatalf("sizeof(cell) = %d, want 16", got)
	}
}

// chainRouter routes every flow on exactly hops hops, src → dst+hops-1 →
// … → dst+1 → dst (mod n), and declares that length as its MaxHops.
type chainRouter struct{ n, hops int }

func (r chainRouter) Name() string { return "chain" }
func (r chainRouter) MaxHops() int { return r.hops }
func (r chainRouter) Route(src, dst, slot int, g *rng.RNG) routing.Route {
	return r.RouteInto(nil, src, dst, slot, g)
}
func (r chainRouter) RouteInto(buf routing.Route, src, dst, _ int, _ *rng.RNG) routing.Route {
	buf = append(buf, src)
	for k := r.hops - 1; k >= 1; k-- {
		buf = append(buf, (dst+k)%r.n)
	}
	return append(buf, dst)
}
func (r chainRouter) Paths(src, dst int, fn func(routing.Route, float64)) {
	fn(r.Route(src, dst, 0, nil), 1)
}

// TestRouterHopCapacity checks the route-length bound at its edge: a
// router at maxHops simulates end to end — every cell delivered on a
// maxHops-hop path — and one past it is refused by New, Reconfigure
// and ReconfigureGraceful with an error instead of a panic.
func TestRouterHopCapacity(t *testing.T) {
	n := 16
	sched := matching.RoundRobin(n) // circuits between every pair
	atCap := chainRouter{n: n, hops: maxHops}
	over := chainRouter{n: n, hops: maxHops + 1}
	for _, dense := range []bool{false, true} {
		s, err := New(Config{Schedule: sched, Router: atCap, SlotNS: 100, PropNS: 200,
			Seed: 1, LatencySampleEvery: 1, Dense: dense})
		if err != nil {
			t.Fatalf("router at %d hops rejected: %v", maxHops, err)
		}
		checkEveryStep(t, s)
		s.StartMeasuring()
		f := s.InjectFlow(0, 8, 5) // 0 → 13 → 12 → 11 → 10 → 9 → 8
		for i := 0; i < 2000 && !s.Drained(); i++ {
			s.Step()
		}
		if !f.Done() || s.Stats().LatencyByHops[maxHops].Count() != 5 {
			t.Fatalf("dense=%v: flow done=%v, %d-hop samples %d, want 5",
				dense, f.Done(), maxHops, s.Stats().LatencyByHops[maxHops].Count())
		}
		if err := s.Reconfigure(sched, atCap); err != nil {
			t.Fatalf("reconfigure to %d hops rejected: %v", maxHops, err)
		}
		if err := s.Reconfigure(sched, over); err == nil {
			t.Fatalf("reconfigure to %d hops accepted", maxHops+1)
		}
		if _, _, err := s.ReconfigureGraceful(sched, over, 10); err == nil {
			t.Fatalf("graceful reconfigure to %d hops accepted", maxHops+1)
		}
	}
	if _, err := New(Config{Schedule: sched, Router: over}); err == nil {
		t.Fatalf("router at %d hops accepted", maxHops+1)
	}
}
