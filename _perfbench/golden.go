package main

// Committed fluid θ of fluid_sweep's points, in grid order. The fluid
// solver is deterministic and seed-free, so a change to any value beyond
// 1e-12 is a change to the model, not noise. Regenerate by printing
// experiments.Fig2f(Fig2fConfig{N, Nc, Step, SizeCap: 1333}) θ with %.17g.
var (
	// N=512, Nc=16, x = 0, 0.25, 0.5, 0.75, 1.
	goldenTheta512 = []float64{
		0.33333333333332726,
		0.36336109008327572,
		0.39966694421314841,
		0.44403330249767919,
		0.47833207559287805,
	}
	// N=32, Nc=4, x = 0, 0.5, 1 (self-test size).
	goldenTheta32 = []float64{
		0.33333333333333343,
		0.40000000000000013,
		0.50631458094144666,
	}
)
