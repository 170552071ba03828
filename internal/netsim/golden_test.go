package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fingerprint hashes everything BitIdentical compares — every Stats
// counter and every sample stream, bit for bit and in order — plus the
// queue, delay-line and per-flow end state, so two runs with equal
// fingerprints are indistinguishable through the public API.
func fingerprint(s *Sim) string {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, _ = h.Write(b[:]) // hash.Hash writes never fail
	}
	sample := func(sm *stats.Sample) {
		vs := sm.Values()
		put(int64(len(vs)))
		for _, v := range vs {
			put(int64(math.Float64bits(v)))
		}
	}
	st := s.Stats()
	for _, c := range []int64{st.DeliveredCells, st.InjectedCells, st.SentCells, st.IdleSlots,
		st.LostCells, st.DroppedCells, st.MeasuredSlots, st.CompletedFlows, int64(st.Planes)} {
		put(c)
	}
	sample(&st.LatencySlots)
	sample(&st.FCTSlots)
	put(int64(len(st.LatencyByHops)))
	for i := range st.LatencyByHops {
		sample(&st.LatencyByHops[i])
	}
	put(s.Backlog())
	put(int64(s.InFlight()))
	put(s.Slot())
	s.eachFlow(func(f *FlowState) {
		put(int64(f.delivered))
		put(int64(f.lost))
		put(f.done)
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenScenario is one pinned run. The fingerprints were recorded with
// the 24-byte, 8-waypoint cell layout; the compact cell and the VOQ
// occupancy bitmap must reproduce them exactly under both engines and
// any worker count.
type goldenScenario struct {
	name string
	want string
	run  func(t *testing.T, dense bool, workers int) *Sim
}

func sornSaturatedGolden(x float64) func(t *testing.T, dense bool, workers int) *Sim {
	return func(t *testing.T, dense bool, workers int) *Sim {
		sc, err := schedule.BuildSORN(schedule.SORNConfig{N: 128, Nc: 8, Q: model.SORNQClamped(x, 16)})
		if err != nil {
			t.Fatal(err)
		}
		tm, err := workload.Locality(sc.Cliques, x)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Schedule: sc.Schedule, Router: routing.NewSORN(sc),
			SlotNS: 100, PropNS: 500, Seed: 13, LatencySampleEvery: 4,
			Dense: dense, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunSaturated(SaturationConfig{TM: tm, Size: workload.NewCapped(workload.WebSearch(), 40),
			TargetBacklog: 48, WarmupSlots: 200, MeasureSlots: 400}); err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// ornChurnGolden runs an h-dimensional ORN open loop through link and
// node failures, a repair, and a mid-run Reconfigure to the other
// dimension, then drains.
func ornChurnGolden(h, h2 int) func(t *testing.T, dense bool, workers int) *Sim {
	return func(t *testing.T, dense bool, workers int) *Sim {
		n := 64
		orn, err := schedule.BuildOptimalORN(n, h)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Schedule: orn.Schedule, Router: routing.NewORN(orn),
			SlotNS: 100, PropNS: 400, Seed: 17, LatencySampleEvery: 1,
			QueueLimit: 24, Dense: dense, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		s.StartMeasuring()
		gen, err := workload.NewPoissonFlows(workload.Uniform(n), workload.FixedSize(3), 0.25, 29)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunOpenLoop(gen.Window(0, 400), 400); err != nil {
			t.Fatal(err)
		}
		s.FailLink(1, 2)
		s.FailNode(5)
		if err := s.RunOpenLoop(gen.Window(400, 800), 800); err != nil {
			t.Fatal(err)
		}
		s.RepairNode(5)
		s.FailNode(11)
		orn2, err := schedule.BuildOptimalORN(n, h2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Reconfigure(orn2.Schedule, routing.NewORN(orn2)); err != nil {
			t.Fatal(err)
		}
		if err := s.RunOpenLoop(gen.Window(800, 1200), 1200); err != nil {
			t.Fatal(err)
		}
		s.RepairLink(1, 2)
		for i := 0; i < 20000 && !s.Drained(); i++ {
			s.Step()
		}
		return s
	}
}

// flatOpenLoopGolden runs an open loop on the round-robin schedule under
// a flat router: VLB (2-hop) or Direct (1-hop, where a queued cell's
// only waypoint is its queue's next hop).
func flatOpenLoopGolden(direct bool) func(t *testing.T, dense bool, workers int) *Sim {
	return func(t *testing.T, dense bool, workers int) *Sim {
		n := 32
		sched := matching.RoundRobin(n)
		var r routing.Router
		var err error
		if direct {
			r, err = routing.NewDirect(matching.Compile(sched))
		} else {
			r, err = routing.NewVLB(matching.Compile(sched))
		}
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Schedule: sched, Router: r, SlotNS: 100, PropNS: 300,
			Seed: 23, LatencySampleEvery: 2, Planes: 2, QueueLimit: 32,
			Dense: dense, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		s.StartMeasuring()
		gen, err := workload.NewPoissonFlows(workload.Uniform(n), workload.NewCapped(workload.WebSearch(), 30), 0.5, 31)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunOpenLoop(gen.Window(0, 1500), 1500); err != nil {
			t.Fatal(err)
		}
		s.FailNode(7)
		for i := 0; i < 20000 && !s.Drained(); i++ {
			s.Step()
		}
		return s
	}
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{"sorn128-saturated-x0", "2e8e56ec089f318e", sornSaturatedGolden(0)},
		{"sorn128-saturated-x0.56", "f4c901263102b1a3", sornSaturatedGolden(0.56)},
		{"sorn128-saturated-x1", "65f646269e8842b5", sornSaturatedGolden(1)},
		{"vlb-openloop", "2490052580d0ca51", flatOpenLoopGolden(false)},
		{"direct-openloop", "3a9507df30315a73", flatOpenLoopGolden(true)},
		{"orn2d-churn-reconfigure", "ad7c33cc49f26af1", ornChurnGolden(2, 3)},
		{"orn3d-churn-reconfigure", "a37c7764919978e6", ornChurnGolden(3, 2)},
	}
}

// TestGoldenFingerprints pins end-to-end simulator output across layout
// changes: every scenario, under the dense and active engines and one
// or two workers, must hash to the recorded fingerprint.
func TestGoldenFingerprints(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for _, c := range []struct {
				dense   bool
				workers int
			}{{false, 1}, {true, 1}, {false, 2}} {
				if got := fingerprint(sc.run(t, c.dense, c.workers)); got != sc.want {
					t.Errorf("dense=%v workers=%d: fingerprint %s, want %s", c.dense, c.workers, got, sc.want)
				}
			}
		})
	}
}
