package stats

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean = %f", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %f/%f", s.Min(), s.Max())
	}
	if math.Abs(s.Variance()-2.5) > 1e-12 {
		t.Fatalf("variance = %f, want 2.5", s.Variance())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	// An empty summary has no mean/min/max: NaN, not a misleading 0.
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatalf("empty summary mean/min/max = %f/%f/%f, want NaN", s.Mean(), s.Min(), s.Max())
	}
	if s.Variance() != 0 || s.Count() != 0 {
		t.Fatal("empty summary variance/count not zero")
	}
	s.Add(7)
	if s.Variance() != 0 || s.Mean() != 7 || s.Min() != 7 || s.Max() != 7 {
		t.Fatal("single-element summary wrong")
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(100)
		var s Summary
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()*200 - 100
			s.Add(xs[i])
		}
		mean := 0.0
		for _, v := range xs {
			mean += v
		}
		mean /= float64(n)
		varsum := 0.0
		for _, v := range xs {
			varsum += (v - mean) * (v - mean)
		}
		naiveVar := varsum / float64(n-1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Variance()-naiveVar) < 1e-6
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%.0f = %f, want %f", c.p, got, c.want)
		}
	}
	if s.Max() != 100 {
		t.Errorf("max = %f", s.Max())
	}
	if s.Mean() != 50.5 {
		t.Errorf("mean = %f", s.Mean())
	}
}

func TestPercentileMonotone(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		var s Sample
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			s.Add(r.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileInterleavedAdd(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Add(1)
	_ = s.Percentile(50)
	s.Add(100) // must re-sort after this
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 after interleaved add = %f", got)
	}
}

func TestEmptySample(t *testing.T) {
	var s Sample
	// Empty-sample queries return NaN across the board — Percentile,
	// Mean, and Max (which delegates to Percentile) agree.
	if !math.IsNaN(s.Percentile(50)) || !math.IsNaN(s.Mean()) || !math.IsNaN(s.Max()) {
		t.Fatalf("empty sample p50/mean/max = %f/%f/%f, want NaN",
			s.Percentile(50), s.Mean(), s.Max())
	}
	if s.Count() != 0 {
		t.Fatal("empty sample count not zero")
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram()
	for _, v := range []float64{0.5, 1, 2, 3, 4, 1000} {
		h.Add(v)
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d", h.Total())
	}
	bounds, counts := h.Buckets()
	if len(bounds) != len(counts) || len(bounds) == 0 {
		t.Fatal("malformed buckets")
	}
	var sum int64
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatal("bounds not increasing")
		}
	}
	for _, c := range counts {
		sum += c
	}
	if sum != 6 {
		t.Fatalf("bucket counts sum to %d", sum)
	}
}

func TestTableRendering(t *testing.T) {
	var tb Table
	tb.SetHeader("System", "Thpt.")
	tb.AddRow("1D ORN", "50%")
	tb.AddRow("SORN", "40.98%")
	out := tb.String()
	if !strings.Contains(out, "System") || !strings.Contains(out, "40.98%") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines (header, rule, 2 rows), got %d:\n%s", len(lines), out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "System,Thpt.\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
}

func TestTableAddRowf(t *testing.T) {
	var tb Table
	tb.SetHeader("a", "b", "c")
	tb.AddRowf("x", 1.5, 42)
	out := tb.String()
	for _, want := range []string{"x", "1.50", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	var tb Table
	tb.SetHeader("a", "b")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "z")
	out := tb.String()
	if !strings.Contains(out, "only-one") || !strings.Contains(out, "z") {
		t.Fatalf("ragged rows mishandled:\n%s", out)
	}
}

func TestTableNoHeader(t *testing.T) {
	var tb Table
	tb.AddRow("a", "b")
	out := tb.String()
	if strings.Contains(out, "---") {
		t.Fatalf("headerless table rendered a rule:\n%s", out)
	}
	if !strings.Contains(out, "a") {
		t.Fatal("row missing")
	}
}

func TestLogHistogramEmptyBuckets(t *testing.T) {
	h := NewLogHistogram()
	bounds, counts := h.Buckets()
	if len(bounds) != 0 || len(counts) != 0 || h.Total() != 0 {
		t.Fatal("empty histogram not empty")
	}
}

// refSample is the plain-slice Sample the chunked one must match bit for
// bit: append on Add, sort in place on the first percentile after it.
type refSample struct {
	xs     []float64
	sorted bool
}

func (r *refSample) add(v float64) { r.xs = append(r.xs, v); r.sorted = false }

func (r *refSample) percentile(p float64) float64 {
	if len(r.xs) == 0 {
		return math.NaN()
	}
	if !r.sorted {
		sort.Float64s(r.xs)
		r.sorted = true
	}
	if p <= 0 {
		return r.xs[0]
	}
	if p >= 100 {
		return r.xs[len(r.xs)-1]
	}
	rank := p / 100 * float64(len(r.xs)-1)
	lo := int(rank)
	if lo+1 >= len(r.xs) {
		return r.xs[len(r.xs)-1]
	}
	return r.xs[lo] + (rank-float64(lo))*(r.xs[lo+1]-r.xs[lo])
}

func (r *refSample) drainTo(dst *refSample) {
	dst.xs = append(dst.xs, r.xs...)
	dst.sorted = false
	r.xs, r.sorted = nil, false
}

func (r *refSample) mean() float64 {
	if len(r.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range r.xs {
		sum += v
	}
	return sum / float64(len(r.xs))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func assertMatchesRef(t *testing.T, step string, s *Sample, r *refSample) {
	t.Helper()
	got := s.Values()
	if len(got) != len(r.xs) || s.Count() != len(r.xs) {
		t.Fatalf("%s: %d values (Count %d), reference has %d", step, len(got), s.Count(), len(r.xs))
	}
	for i := range got {
		if !sameBits(got[i], r.xs[i]) {
			t.Fatalf("%s: value %d = %v, reference %v", step, i, got[i], r.xs[i])
		}
	}
	if m, rm := s.Mean(), r.mean(); !sameBits(m, rm) {
		t.Fatalf("%s: mean %v, reference %v", step, m, rm)
	}
}

// TestSampleMatchesSliceReference drives chunked Samples and the
// plain-slice reference through the same interleaving of Add, DrainTo
// into a non-empty destination, Percentile and more Adds, at sizes
// around the chunk boundaries, and requires bit-identical values,
// means and percentiles after every step.
func TestSampleMatchesSliceReference(t *testing.T) {
	r := rng.New(42)
	for _, n := range []int{0, 1, sampleChunk - 1, sampleChunk, sampleChunk + 1, 3*sampleChunk + 7} {
		var s, dst Sample
		var rs, rdst refSample
		for i := 0; i < 5; i++ { // a non-empty destination
			v := r.Float64()
			dst.Add(v)
			rdst.add(v)
		}
		for i := 0; i < n; i++ {
			v := r.Float64()*1000 - 10
			s.Add(v)
			rs.add(v)
		}
		step := fmt.Sprintf("n=%d add", n)
		assertMatchesRef(t, step, &s, &rs)
		s.DrainTo(&dst)
		rs.drainTo(&rdst)
		step = fmt.Sprintf("n=%d drain", n)
		assertMatchesRef(t, step+" (src)", &s, &rs)
		assertMatchesRef(t, step+" (dst)", &dst, &rdst)
		for _, p := range []float64{0, 1, 50, 99, 100} {
			if got, want := dst.Percentile(p), rdst.percentile(p); !sameBits(got, want) {
				t.Fatalf("n=%d p%v = %v, reference %v", n, p, got, want)
			}
		}
		assertMatchesRef(t, fmt.Sprintf("n=%d percentile", n), &dst, &rdst)
		for i := 0; i < n+3; i++ {
			v := r.Float64() * 7
			dst.Add(v)
			rdst.add(v)
			if i%3 == 0 { // refill the drained source too
				s.Add(v)
				rs.add(v)
			}
		}
		assertMatchesRef(t, fmt.Sprintf("n=%d add after percentile", n), &dst, &rdst)
		assertMatchesRef(t, fmt.Sprintf("n=%d refilled src", n), &s, &rs)
		if got, want := dst.Percentile(50), rdst.percentile(50); !sameBits(got, want) {
			t.Fatalf("n=%d p50 after re-add = %v, reference %v", n, got, want)
		}
	}
}

// TestSampleCopyKeepsItsValues: a by-value copy, as the availability
// replay takes of its running Stats every window, keeps reporting the
// observations it was taken with while the original grows on.
func TestSampleCopyKeepsItsValues(t *testing.T) {
	for _, n := range []int{0, 3, sampleChunk, sampleChunk + 5} {
		var s Sample
		for i := 0; i < n; i++ {
			s.Add(float64(i))
		}
		cp := s
		want := cp.Values()
		for i := 0; i < 2*sampleChunk+9; i++ {
			s.Add(-1)
		}
		got := cp.Values()
		if len(got) != len(want) || cp.Count() != n {
			t.Fatalf("n=%d: copy has %d values after Adds on the original, want %d", n, len(got), n)
		}
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("n=%d: copy value %d changed to %v after Adds on the original", n, i, got[i])
			}
		}
	}
}

// TestSampleAllocTracksCount is a host-independent allocation guard:
// growing a Sample to n observations allocates at most 10% over the 8
// bytes each one keeps, plus one chunk — no copy-on-grow of old data.
func TestSampleAllocTracksCount(t *testing.T) {
	for _, n := range []int{100, sampleChunk + 1, 1 << 20} {
		var s Sample
		before := totalAlloc()
		for i := 0; i < n; i++ {
			s.Add(float64(i))
		}
		got := totalAlloc() - before
		if bound := uint64(1.1*8*float64(n)) + 8*sampleChunk; got > bound {
			t.Errorf("n=%d: Add allocated %d B, bound %d B", n, got, bound)
		}
		var dst Sample
		before = totalAlloc()
		s.DrainTo(&dst)
		got = totalAlloc() - before
		if bound := uint64(1.1*8*float64(n)) + 8*sampleChunk; got > bound {
			t.Errorf("n=%d: DrainTo allocated %d B, bound %d B", n, got, bound)
		}
		if dst.Count() != n {
			t.Fatalf("n=%d: drained %d", n, dst.Count())
		}
	}
}

// totalAlloc returns the process's cumulative heap allocation in bytes.
// The tests around it run serially, so the delta is theirs (give or take
// the runtime's own background allocation, which the bounds absorb).
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
