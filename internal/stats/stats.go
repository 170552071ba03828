// Package stats provides the small statistics toolkit the simulator and the
// experiment harness share: streaming summaries, percentile estimation over
// retained samples, log-scale histograms for latency distributions, and a
// fixed-width table renderer used by the cmd/ binaries to print the paper's
// tables and figure series.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sortedmap"
)

// Summary accumulates a stream of float64 observations and reports count,
// mean, variance (Welford), min, and max without retaining samples.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	d := v - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (v - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() int64 { return s.n }

// Mean returns the running mean, or NaN with no observations: an empty
// summary has no mean, and a silent 0 reads as a (wrong) measurement in
// downstream tables.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Variance returns the sample variance, or 0 for fewer than 2 observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or NaN with no observations.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation, or NaN with no observations.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// sampleChunk caps a Sample storage chunk, in observations: 4096
// float64s are 32 KiB, Go's largest small-object size class.
const sampleChunk = 4096

// Sample retains every observation and answers percentile queries exactly.
// Suitable for the volumes this repository produces (≤ millions of points).
// Staged: shard-phase code only ever appends into samples inside its own
// shard's staged Stats, merged at the slot barrier in shard order.
//
// Storage is a list of chunks in insertion order: 8 observations, then
// twice the previous chunk up to sampleChunk, then sampleChunk each. A
// full chunk is sealed and never moved, so Add and DrainTo copy only the
// new observations — a run's latency samples allocate about what they
// keep, not the several times over that one growing slice copies on its
// way up, and a small sample stays small. The first Percentile after an
// Add flattens the chunks into one contiguous slice (once; a single
// chunk is sorted in place) and sorts it, as Values then reports.
//
// A by-value copy (cur := *sim.Stats()) shares the chunks but records its
// own lengths: further Adds on the original write past the copy's view,
// so the copy's Values stay as they were. A Percentile on either, or a
// DrainTo from the original, may reorder or reuse the shared storage.
//
//sornlint:staged
type Sample struct {
	full   [][]float64 // sealed chunks, each filled to capacity
	sealed int         // observations in full
	tail   []float64   // open chunk the next Add appends to
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if len(s.tail) == cap(s.tail) {
		s.grow()
	}
	s.tail = append(s.tail, v)
	s.sorted = false
}

// grow seals the (full) open chunk and opens the next one.
func (s *Sample) grow() {
	c := 2 * cap(s.tail)
	if c == 0 {
		c = 8
	} else if c > sampleChunk {
		c = sampleChunk
	}
	if len(s.tail) > 0 {
		s.full = append(s.full, s.tail)
		s.sealed += len(s.tail)
	}
	s.tail = make([]float64, 0, c)
}

// Count returns the number of observations.
func (s *Sample) Count() int { return s.sealed + len(s.tail) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks. It returns NaN with no
// observations — consistent with Mean, and distinguishable from a real
// zero-latency percentile.
func (s *Sample) Percentile(p float64) float64 {
	if s.Count() == 0 {
		return math.NaN()
	}
	if !s.sorted {
		s.flatten()
		sort.Float64s(s.tail)
		s.sorted = true
	}
	xs := s.tail
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// flatten moves every observation into one contiguous open chunk.
func (s *Sample) flatten() {
	if len(s.full) == 0 {
		return
	}
	xs := make([]float64, 0, s.Count())
	for _, c := range s.full {
		xs = append(xs, c...)
	}
	s.tail = append(xs, s.tail...)
	s.full, s.sealed = nil, 0
}

// DrainTo appends s's observations to dst in insertion order and resets
// s to empty. It is the deterministic merge primitive for sharded
// accumulation: draining shard samples in a fixed shard order yields the
// same dst stream regardless of how observations were partitioned. s
// keeps its open chunk for reuse.
func (s *Sample) DrainTo(dst *Sample) {
	if s.Count() == 0 {
		return
	}
	for _, c := range s.full {
		for _, v := range c {
			dst.Add(v)
		}
	}
	for _, v := range s.tail {
		dst.Add(v)
	}
	s.full, s.sealed = nil, 0
	s.tail = s.tail[:0]
	s.sorted = false
}

// Values returns a copy of the retained observations in insertion order
// (or sorted order after a percentile query). Intended for tests that
// compare sample streams exactly.
func (s *Sample) Values() []float64 {
	out := make([]float64, 0, s.Count())
	for _, c := range s.full {
		out = append(out, c...)
	}
	return append(out, s.tail...)
}

// Mean returns the arithmetic mean of the sample, or NaN when empty. It
// sums in insertion (or sorted) order, one observation at a time.
func (s *Sample) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, c := range s.full {
		for _, v := range c {
			sum += v
		}
	}
	for _, v := range s.tail {
		sum += v
	}
	return sum / float64(n)
}

// Max returns the largest observation, or NaN with no observations.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// LogHistogram buckets positive values into base-2 logarithmic bins, which
// is how latency distributions spanning ns..ms are reported.
type LogHistogram struct {
	counts map[int]int64
	total  int64
}

// NewLogHistogram returns an empty histogram.
func NewLogHistogram() *LogHistogram {
	return &LogHistogram{counts: make(map[int]int64)}
}

// Add records v. Non-positive values land in the lowest bucket.
func (h *LogHistogram) Add(v float64) {
	b := 0
	if v > 1 {
		b = int(math.Log2(v))
	}
	h.counts[b]++
	h.total++
}

// Total returns the number of recorded values.
func (h *LogHistogram) Total() int64 { return h.total }

// Buckets returns (lowerBound, count) pairs in increasing order.
func (h *LogHistogram) Buckets() (bounds []float64, counts []int64) {
	for _, k := range sortedmap.Keys(h.counts) {
		bounds = append(bounds, math.Pow(2, float64(k)))
		counts = append(counts, h.counts[k])
	}
	return bounds, counts
}

// Table renders rows of strings with aligned columns, in the style of the
// paper's Table 1. The zero value is ready to use.
type Table struct {
	header []string
	rows   [][]string
}

// SetHeader sets the column headers.
func (t *Table) SetHeader(cols ...string) { t.header = cols }

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row of formatted cells, each built with fmt.Sprintf
// from consecutive (format, value) handling left to the caller.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	ncols := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < ncols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for _, w := range widths {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(ncols-1)))
		b.WriteString("\n")
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting; callers only
// emit numeric and simple-identifier cells).
func (t *Table) CSV() string {
	var b strings.Builder
	if len(t.header) > 0 {
		b.WriteString(strings.Join(t.header, ","))
		b.WriteString("\n")
	}
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteString("\n")
	}
	return b.String()
}
