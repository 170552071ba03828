package ocs

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/sortedmap"
)

// neighborsReference is the map-based Schedule.Neighbors the mark-slice
// version replaced.
func neighborsReference(s *matching.Schedule, u int) []int {
	set := map[int]bool{}
	for _, m := range s.Slots {
		set[m[u]] = true
	}
	return sortedmap.Keys(set)
}

// diffReference returns the elements of sorted a missing from sorted b
// (nil when none).
func diffReference(a, b []int) []int {
	var out []int
	for _, v := range a {
		if i := sort.SearchInts(b, v); i >= len(b) || b[i] != v {
			out = append(out, v)
		}
	}
	return out
}

// planUpdateReference is the per-node, map-based PlanUpdate the one-pass
// version replaced.
func planUpdateReference(old, new *matching.Schedule) *Update {
	n := old.N
	u := &Update{
		SlotChanges:      make([]int, n),
		AddedNeighbors:   make([][]int, n),
		RemovedNeighbors: make([][]int, n),
		OldPeriod:        old.Period(),
		NewPeriod:        new.Period(),
	}
	l := lcm(old.Period(), new.Period())
	for t := 0; t < l; t++ {
		om, nm := old.Slots[t%old.Period()], new.Slots[t%new.Period()]
		for node := 0; node < n; node++ {
			if om[node] != nm[node] {
				u.SlotChanges[node]++
			}
		}
	}
	for node := 0; node < n; node++ {
		oldNb, newNb := neighborsReference(old, node), neighborsReference(new, node)
		u.AddedNeighbors[node] = diffReference(newNb, oldNb)
		u.RemovedNeighbors[node] = diffReference(oldNb, newNb)
	}
	return u
}

// diffSchedules returns named 32-node schedules of every family the
// control plane diffs: SORN at several q and clique counts, the optimal
// ORN, round-robin, and SORN relabeled onto a scattered partition (the
// perm ∘ m ∘ perm⁻¹ construction the controller's re-clustering uses).
func diffSchedules(t testing.TB) map[string]*matching.Schedule {
	t.Helper()
	out := map[string]*matching.Schedule{"round-robin": matching.RoundRobin(32)}
	for _, c := range []schedule.SORNConfig{{N: 32, Nc: 4, Q: 1}, {N: 32, Nc: 4, Q: 3.5}, {N: 32, Nc: 8, Q: 2}} {
		s, err := schedule.BuildSORN(c)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("sorn-nc%d-q%g", c.Nc, c.Q)] = s.Schedule
	}
	orn, err := schedule.BuildOptimalORN(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	out["orn-h5"] = orn.Schedule
	for i, name := range []string{"sorn-nc4-q1", "sorn-nc8-q2"} {
		rel, err := out[name].Relabel(rng.New(uint64(i + 1)).Perm(32))
		if err != nil {
			t.Fatal(err)
		}
		out["relabeled-"+name] = rel
	}
	return out
}

func TestNeighborsMatchReference(t *testing.T) {
	scheds := diffSchedules(t)
	for _, name := range sortedmap.Keys(scheds) {
		s := scheds[name]
		for u := 0; u < s.N; u++ {
			if got, want := s.Neighbors(u), neighborsReference(s, u); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s node %d: Neighbors %v, reference %v", name, u, got, want)
			}
		}
	}
}

func TestPlanUpdateMatchesReference(t *testing.T) {
	scheds := diffSchedules(t)
	names := sortedmap.Keys(scheds)
	for _, a := range names {
		for _, b := range names {
			got, err := PlanUpdate(scheds[a], scheds[b])
			if err != nil {
				t.Fatal(err)
			}
			if want := planUpdateReference(scheds[a], scheds[b]); !reflect.DeepEqual(got, want) {
				t.Fatalf("PlanUpdate(%s, %s) differs from the reference:\n got %+v\nwant %+v", a, b, got, want)
			}
		}
	}
}

// BenchmarkPlanUpdate diffs two 128-node, 8-clique SORN schedules on
// different partitions — the controller's re-plan after re-clustering.
func BenchmarkPlanUpdate(b *testing.B) {
	base, err := schedule.BuildSORN(schedule.SORNConfig{N: 128, Nc: 8, Q: 2})
	if err != nil {
		b.Fatal(err)
	}
	next, err := schedule.BuildSORN(schedule.SORNConfig{N: 128, Nc: 8, Q: 3})
	if err != nil {
		b.Fatal(err)
	}
	relabeled, err := next.Schedule.Relabel(rng.New(7).Perm(128))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanUpdate(base.Schedule, relabeled); err != nil {
			b.Fatal(err)
		}
	}
}
