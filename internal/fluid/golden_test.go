package fluid

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/matching"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/schedule"
	"repro/internal/workload"
)

// goldenResult is a Result reduced to exact bits: every float64 field as
// math.Float64bits, so a comparison catches a change in the last ulp.
type goldenResult struct {
	theta, meanHops, bnLoad, bnCap uint64
	bnSrc, bnDst, links            int
}

func goldenOf(r *Result) goldenResult {
	return goldenResult{
		theta:    math.Float64bits(r.Theta),
		meanHops: math.Float64bits(r.MeanHops),
		bnLoad:   math.Float64bits(r.BottleneckLoad),
		bnCap:    math.Float64bits(r.BottleneckCap),
		bnSrc:    r.BottleneckSrc,
		bnDst:    r.BottleneckDst,
		links:    r.LinkCount,
	}
}

func (g goldenResult) literal() string {
	return fmt.Sprintf("{%#x, %#x, %#x, %#x, %d, %d, %d}",
		g.theta, g.meanHops, g.bnLoad, g.bnCap, g.bnSrc, g.bnDst, g.links)
}

type goldenSolve struct {
	sched  *matching.Schedule
	router routing.Router
	tm     *workload.Matrix
}

func goldenSORN(t *testing.T, x float64) goldenSolve {
	t.Helper()
	built, err := schedule.BuildSORN(schedule.SORNConfig{N: 128, Nc: 8, Q: model.SORNQClamped(x, 16)})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := workload.Locality(built.Cliques, x)
	if err != nil {
		t.Fatal(err)
	}
	return goldenSolve{built.Schedule, routing.NewSORN(built), tm}
}

// TestSolveGoldenBits pins Solve's Result bit-for-bit. The values were
// captured from the nested-matrix solver with a freshly allocated route
// per path; any later rewrite of the solve or of path enumeration must
// keep every floating-point addition's operands and order, and so
// reproduce them exactly.
func TestSolveGoldenBits(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) goldenSolve
		want  goldenResult
	}{
		{"sorn128-x0", func(t *testing.T) goldenSolve { return goldenSORN(t, 0) },
			goldenResult{0x3fd5555555555552, 0x4006ffffffffb4c2, 0x3fc2492492492495, 0x3fa8618618618618, 0, 16, 2816}},
		{"sorn128-x0.56", func(t *testing.T) goldenSolve { return goldenSORN(t, 0.56) },
			goldenResult{0x3fda30f0a8d220e0, 0x4002c805761a453f, 0x3fb01767dce4349a, 0x3f9a574107688a4a, 0, 16, 2816}},
		{"sorn128-x1", func(t *testing.T) goldenSolve { return goldenSORN(t, 1) },
			goldenResult{0x3fdf2a11cd8bcd07, 0x3ffeeeeeeeeef29a, 0x3fc07f6e5d4c3b2a, 0x3fb0112358e75d30, 0, 1, 1920}},
		{"vlb128-uniform", func(t *testing.T) goldenSolve {
			s := matching.RoundRobin(128)
			v, err := routing.NewVLB(matching.Compile(s))
			if err != nil {
				t.Fatal(err)
			}
			return goldenSolve{s, v, workload.Uniform(128)}
		}, goldenResult{0x3fe0103091b51f7e, 0x3fffdfbf7f039b64, 0x3f900fffbefcf7cc, 0x3f80204081020408, 0, 1, 16256}},
		{"orn2d64-uniform", func(t *testing.T) goldenSolve {
			o, err := schedule.BuildOptimalORN(64, 2)
			if err != nil {
				t.Fatal(err)
			}
			return goldenSolve{o.Schedule, routing.NewORN(o), workload.Uniform(64)}
		}, goldenResult{0x3fd24924924924a4, 0x400c000000004c11, 0x3fcfffffffffffe1, 0x3fb2492492492492, 0, 1, 896}},
		{"direct128-hotspot", func(t *testing.T) goldenSolve {
			s := matching.RoundRobin(128)
			d, err := routing.NewDirect(matching.Compile(s))
			if err != nil {
				t.Fatal(err)
			}
			tm, err := workload.Hotspot(128, 5, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			return goldenSolve{s, d, tm}
		}, goldenResult{0x3fbcec4ec4ec4ed4, 0x3ff0000000000000, 0x3fb1d76d7e6445c9, 0x3f80204081020408, 0, 1, 16256}},
		{"relabeled-sorn128-x0.56", func(t *testing.T) goldenSolve {
			g := goldenSORN(t, 0.56)
			perm := rng.New(12).Perm(128)
			s, err := g.sched.Relabel(perm)
			if err != nil {
				t.Fatal(err)
			}
			r, err := routing.NewRelabeled(g.router, perm)
			if err != nil {
				t.Fatal(err)
			}
			tm, err := g.tm.Relabel(perm)
			if err != nil {
				t.Fatal(err)
			}
			return goldenSolve{s, r, tm}
		}, goldenResult{0x3fda30f0a8d220e0, 0x4002c805761a4545, 0x3fb01767dce4349a, 0x3f9a574107688a4a, 0, 13, 2816}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			res, err := Solve(g.sched, g.router, g.tm)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenOf(res); got != tc.want {
				t.Errorf("Result bits changed:\n got  %s\n want %s", got.literal(), tc.want.literal())
			}
		})
	}
}
