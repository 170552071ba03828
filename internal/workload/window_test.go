package workload

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/schedule"
)

// windowReference is the original Window: a linear-scan SampleDest per
// flow and a sort.Slice over (Arrival, ID). Window must reproduce its
// flows and leave the generator's rng in the same state.
func windowReference(g *PoissonFlows, from, to int64) []Flow {
	var out []Flow
	mean := g.Size.MeanCells()
	for src := 0; src < g.TM.N; src++ {
		rate := g.Load * g.TM.RowSum(src) / mean
		if rate <= 0 {
			continue
		}
		t := float64(from) + g.rng.Exp(rate)
		for t < float64(to) {
			g.nextID++
			out = append(out, Flow{
				ID:      g.nextID,
				Src:     src,
				Dst:     g.TM.SampleDest(src, g.rng),
				Size:    g.Size.Sample(g.rng),
				Arrival: int64(t),
			})
			t += g.rng.Exp(rate)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Arrival != out[j].Arrival {
			return out[i].Arrival < out[j].Arrival
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// sparseMatrix has zero rows (nodes that source nothing) and scattered
// zero entries among uneven positive rates.
func sparseMatrix() *Matrix {
	m := NewMatrix(12)
	r := rng.New(77)
	for s := 0; s < m.N; s++ {
		if s%4 == 3 {
			continue // a zero row
		}
		for d := 0; d < m.N; d++ {
			if d != s && r.Float64() < 0.6 {
				m.Rates[s][d] = r.Float64() * float64(1+d%3)
			}
		}
	}
	return m
}

// checkWindowsMatch draws the windows [bounds[i], bounds[i+1]) from two
// generators with one seed, one through Window and one through the
// reference, and requires identical flows window by window (nil for an
// empty window, as the reference returns).
func checkWindowsMatch(t *testing.T, tm *Matrix, size SizeDist, load float64, bounds ...int64) {
	t.Helper()
	got, err := NewPoissonFlows(tm, size, load, 21)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewPoissonFlows(tm, size, load, 21)
	total := 0
	for i := 0; i+1 < len(bounds); i++ {
		from, to := bounds[i], bounds[i+1]
		g, w := got.Window(from, to), windowReference(want, from, to)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("window [%d,%d): %d flows differ from the reference's %d", from, to, len(g), len(w))
		}
		total += len(g)
	}
	if got.rng.Uint64() != want.rng.Uint64() {
		t.Fatal("rng state diverged from the reference")
	}
	if total == 0 && bounds[len(bounds)-1] > bounds[0] {
		t.Fatal("no flows generated; the comparison is vacuous")
	}
}

func TestWindowMatchesReference(t *testing.T) {
	loc, err := Locality(mustCliques(t, 64, 8), 0.56)
	if err != nil {
		t.Fatal(err)
	}
	loc1024, err := Locality(mustCliques(t, 1024, 32), 0.56)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		tm     *Matrix
		size   SizeDist
		load   float64
		bounds []int64
	}{
		{"uniform", Uniform(32), FixedSize(8), 0.3, []int64{0, 5000}},
		{"locality", loc, WebSearch(), 0.4, []int64{0, 3000}},
		{"zero-rows-and-entries", sparseMatrix(), Bimodal{ShortCells: 2, BulkCells: 50, ShortShare: 0.7}, 0.5, []int64{0, 4000}},
		{"n1024-sparse", loc1024, FixedSize(8), 0.002, []int64{0, 20000}},
		{"consecutive", Uniform(16), FixedSize(1), 0.2, []int64{0, 400, 800, 1200}},
		{"empty-span-between", Uniform(16), FixedSize(1), 0.2, []int64{0, 400, 400, 800}},
		{"to-equals-from", Uniform(8), FixedSize(4), 0.5, []int64{500, 500}},
		{"to-before-from", Uniform(8), FixedSize(4), 0.5, []int64{500, 100}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkWindowsMatch(t, c.tm, c.size, c.load, c.bounds...)
		})
	}
}

// TestWindowAllocs pins Window's allocations to its four presized
// slices (row totals, output, prefix row, destination row): neither the
// flow slice's growth nor the sort allocates.
func TestWindowAllocs(t *testing.T) {
	g, err := NewPoissonFlows(Uniform(64), FixedSize(8), 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	from := int64(0)
	allocs := testing.AllocsPerRun(20, func() {
		if len(g.Window(from, from+5000)) == 0 {
			t.Fatal("empty window")
		}
		from += 5000
	})
	if allocs > 4 {
		t.Fatalf("Window made %v allocations, want at most 4", allocs)
	}
}

func TestFirstAbove(t *testing.T) {
	prefix := []float64{1, 2, 2, 3}
	for _, c := range []struct {
		u    float64
		want int
	}{{0, 0}, {0.99, 0}, {1, 1}, {1.5, 1}, {2, 3}, {2.9, 3}, {3, 3}, {7, 3}} {
		if got := firstAbove(prefix, c.u); got != c.want {
			t.Errorf("firstAbove(%v) = %d, want %d", c.u, got, c.want)
		}
	}
}

// BenchmarkPoissonWindow generates the availability replay's trace: 128
// nodes at locality 0.6, load 0.3, 8-cell flows over 100k slots.
func BenchmarkPoissonWindow(b *testing.B) {
	cl, err := schedule.EqualCliques(128, 8)
	if err != nil {
		b.Fatal(err)
	}
	tm, err := Locality(cl, 0.6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	flows := 0
	for i := 0; i < b.N; i++ {
		g, err := NewPoissonFlows(tm, FixedSize(8), 0.3, 2)
		if err != nil {
			b.Fatal(err)
		}
		flows = len(g.Window(0, 100000))
	}
	b.ReportMetric(float64(flows), "flows")
}
