package netsim

import (
	"testing"
	"unsafe"

	"repro/internal/matching"
	"repro/internal/routing"
	"repro/internal/schedule"
)

// checkHopTab asserts hopTab is exactly the node-major transpose of the
// sim's current schedule.
func checkHopTab(t *testing.T, s *Sim, when string) {
	t.Helper()
	period := s.sched.Period()
	if len(s.hopTab) != s.n*period {
		t.Fatalf("%s: hopTab has %d entries, want %d nodes × period %d", when, len(s.hopTab), s.n, period)
	}
	for tt, row := range s.sched.Slots {
		for u, v := range row {
			if got := int(s.hopTab[u*period+tt]); got != v {
				t.Fatalf("%s: hopTab[%d*%d+%d] = %d, schedule says %d", when, u, period, tt, got, v)
			}
		}
	}
}

// TestHopTabTracksSchedule pins the node-major next-hop table to the
// schedule through every way a sim changes schedules: New, Reset onto a
// longer and onto a shorter period, Reset onto the same schedule (which
// must keep the table, not rebuild it), Reconfigure from a 2-D to a 3-D
// ORN, and a Reset back from the reconfigured schedule.
func TestHopTabTracksSchedule(t *testing.T) {
	const n = 64
	orn2, err := schedule.BuildOptimalORN(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	orn3, err := schedule.BuildOptimalORN(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	rr := matching.RoundRobin(n)
	vlb, err := routing.NewVLB(matching.Compile(rr))
	if err != nil {
		t.Fatal(err)
	}
	if !(orn3.Schedule.Period() < orn2.Schedule.Period() && orn2.Schedule.Period() < rr.Period()) {
		t.Fatalf("periods 3-D %d, 2-D %d, round robin %d: the test needs them increasing",
			orn3.Schedule.Period(), orn2.Schedule.Period(), rr.Period())
	}
	ornCfg := Config{Schedule: orn2.Schedule, Router: routing.NewORN(orn2), SlotNS: 100, PropNS: 300, Seed: 5}
	rrCfg := Config{Schedule: rr, Router: vlb, SlotNS: 100, PropNS: 300, Seed: 5}

	s, err := New(ornCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkHopTab(t, s, "New")
	if err := s.Reset(rrCfg); err != nil {
		t.Fatal(err)
	}
	checkHopTab(t, s, "Reset onto a longer period")
	if err := s.Reset(ornCfg); err != nil {
		t.Fatal(err)
	}
	checkHopTab(t, s, "Reset onto a shorter period")

	before := unsafe.SliceData(s.hopTab)
	s.hopTab[0] = -1 // a rebuild would overwrite this; a kept table keeps it
	if err := s.Reset(ornCfg); err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(s.hopTab) != before || s.hopTab[0] != -1 {
		t.Fatal("Reset onto the same schedule rebuilt hopTab")
	}
	s.hopTab[0] = int16(s.sched.Slots[0][0])

	if err := s.Reconfigure(orn3.Schedule, routing.NewORN(orn3)); err != nil {
		t.Fatal(err)
	}
	checkHopTab(t, s, "Reconfigure 2-D → 3-D ORN")
	if err := s.Reset(ornCfg); err != nil {
		t.Fatal(err)
	}
	checkHopTab(t, s, "Reset back from the reconfigured schedule")
}
