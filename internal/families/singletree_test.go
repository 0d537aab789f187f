package families

import (
	"math"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/solve"
)

// TestSingletreeMatchesBaselineGrid is the family's validation story: the
// ERRev certified by Algorithm 1 over the singletree MDP must match the
// independent exact stationary chain analysis of package baseline within
// 1e-6 across a (p, γ) grid. The two implementations share no code — the
// MDP source is built from the protocol description, the baseline folds
// expected rewards into a chain and solves for its stationary
// distribution — so agreement validates the kernel, the analysis layer and
// the family all at once.
func TestSingletreeMatchesBaselineGrid(t *testing.T) {
	const width, depth = 3, 3
	shape := core.Params{Depth: 1, Forks: width, MaxLen: depth}
	for _, p := range []float64{0.05, 0.1, 0.2, 0.3, 0.45} {
		for _, gamma := range []float64{0, 0.5, 1} {
			params := shape
			params.P, params.Gamma = p, gamma
			c, err := Compile("singletree", params)
			if err != nil {
				t.Fatalf("p=%v gamma=%v: Compile: %v", p, gamma, err)
			}
			res, err := analysis.Analyze(t.Context(), c, analysis.Options{Epsilon: 1e-7, SkipStrategy: true})
			if err != nil {
				t.Fatalf("p=%v gamma=%v: Analyze: %v", p, gamma, err)
			}
			want, err := baseline.SingleTreeERRev(baseline.SingleTreeParams{
				P: p, Gamma: gamma, MaxDepth: depth, MaxWidth: width,
			})
			if err != nil {
				t.Fatalf("p=%v gamma=%v: baseline: %v", p, gamma, err)
			}
			if math.Abs(res.ERRev-want) > 1e-6 {
				t.Errorf("p=%v gamma=%v: family ERRev %.9f, baseline %.9f (diff %.2g)",
					p, gamma, res.ERRev, want, math.Abs(res.ERRev-want))
			}
		}
	}
}

// TestSingletreeStateSpaceMatchesBaseline: the independently explored MDP
// must visit exactly as many states as the baseline's chain exploration.
func TestSingletreeStateSpaceMatchesBaseline(t *testing.T) {
	fam, err := Get("singletree")
	if err != nil {
		t.Fatal(err)
	}
	shape := core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 4, MaxLen: 4}
	n, err := fam.NumStates(shape)
	if err != nil {
		t.Fatal(err)
	}
	st, err := baseline.NewSingleTree(4, 4, baseline.PublishThreatened)
	if err != nil {
		t.Fatal(err)
	}
	if n != st.NumStates() {
		t.Errorf("family explored %d states, baseline %d", n, st.NumStates())
	}
}

// TestSingletreeBaselineExact holds the baseline's renewal-reward pass to
// the exact oracle within 1e-14: the family's independently explored
// source, materialized at (p, γ), with gain(r_A) and gain(r_H) of its one
// policy from dense linear solves. The points cover p up to 0.9 at every
// γ corner, and the l=3 width-3 γ=0.5 rows include every p of the sweep
// goldens' single-tree series.
func TestSingletreeBaselineExact(t *testing.T) {
	fam, err := Get("singletree")
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{0.05, 0.1, 0.2, 0.3, 0.45, 0.7, 0.9}
	goldenGrid := []float64{
		0, 0.025000000000000001, 0.050000000000000003, 0.075000000000000011,
		0.10000000000000001, 0.125, 0.15000000000000002, 0.17500000000000002,
		0.20000000000000001, 0.22500000000000001, 0.25, 0.27500000000000002,
		0.29999999999999999,
	}
	worst := 0.0
	for _, shape := range []struct{ depth, width int }{{3, 3}, {4, 3}, {2, 5}, {3, 5}} {
		for _, gamma := range []float64{0, 0.25, 0.5, 1} {
			ps := grid
			if shape.depth == 3 && shape.width == 3 && gamma == 0.5 {
				ps = append(slices.Clone(grid), goldenGrid...)
			}
			for _, p := range ps {
				src, err := fam.Source(core.Params{P: p, Gamma: gamma, Depth: 1, Forks: shape.width, MaxLen: shape.depth})
				if err != nil {
					t.Fatal(err)
				}
				m, err := solve.Materialize(src, p, gamma)
				if err != nil {
					t.Fatal(err)
				}
				policy := make([]int, len(m))
				gA, _, err := m.EvalPolicy(func(ra, _ float64) float64 { return ra }, policy)
				if err != nil {
					t.Fatal(err)
				}
				gH, _, err := m.EvalPolicy(func(_, rh float64) float64 { return rh }, policy)
				if err != nil {
					t.Fatal(err)
				}
				got, err := baseline.SingleTreeERRev(baseline.SingleTreeParams{
					P: p, Gamma: gamma, MaxDepth: shape.depth, MaxWidth: shape.width,
				})
				if err != nil {
					t.Fatal(err)
				}
				diff := math.Abs(got - gA/(gA+gH))
				worst = max(worst, diff)
				if diff > 1e-14 {
					t.Errorf("l=%d width=%d p=%v gamma=%v: baseline %.17g, exact %.17g (diff %.2g)",
						shape.depth, shape.width, p, gamma, got, gA/(gA+gH), diff)
				}
			}
		}
	}
	t.Logf("largest distance from the exact oracle: %.2g", worst)
}

// TestSingletreeShapesMatchBaseline: the family and the baseline accept
// exactly the same (depth, width) shapes, from independent constants.
func TestSingletreeShapesMatchBaseline(t *testing.T) {
	fam, err := Get("singletree")
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l <= 9; l++ {
		for w := 0; w <= 40; w++ {
			famErr := fam.Validate(core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: w, MaxLen: l})
			baseErr := baseline.ValidateSingleTreeShape(l, w)
			if (famErr == nil) != (baseErr == nil) {
				t.Errorf("l=%d width=%d: family %v, baseline %v", l, w, famErr, baseErr)
			}
		}
	}
}

func TestSingletreeStochastic(t *testing.T) {
	for _, pt := range []struct{ p, gamma float64 }{{0.3, 0.5}, {0, 0}, {0.6, 1}} {
		c, err := Compile("singletree", core.Params{P: pt.p, Gamma: pt.gamma, Depth: 1, Forks: 3, MaxLen: 3})
		if err != nil {
			t.Fatalf("p=%v gamma=%v: %v", pt.p, pt.gamma, err)
		}
		if err := c.CheckStochastic(1e-6); err != nil {
			t.Errorf("p=%v gamma=%v: %v", pt.p, pt.gamma, err)
		}
	}
}

func TestSingletreeValidate(t *testing.T) {
	fam, err := Get("singletree")
	if err != nil {
		t.Fatal(err)
	}
	good := core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 5, MaxLen: 4}
	if err := fam.Validate(good); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []core.Params{
		{P: 1, Gamma: 0.5, Depth: 1, Forks: 5, MaxLen: 4},    // non-ergodic
		{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 5, MaxLen: 4},  // depth must be 1
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 0, MaxLen: 4},  // width
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 5, MaxLen: 9},  // tree depth bound
		{P: -0.1, Gamma: 0.5, Depth: 1, Forks: 5, MaxLen: 4}, // p range
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 10, MaxLen: 6}, // joint state bound
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 31, MaxLen: 8}, // joint state bound (extreme)
	}
	for _, b := range bad {
		if err := fam.Validate(b); err == nil {
			t.Errorf("invalid params %+v accepted", b)
		}
	}
}

// TestSingletreeSourceShape: one action per state, and every state's
// transition list is non-empty.
func TestSingletreeSourceShape(t *testing.T) {
	fam, err := Get("singletree")
	if err != nil {
		t.Fatal(err)
	}
	src, err := fam.Source(core.Params{P: 0.2, Gamma: 0.5, Depth: 1, Forks: 2, MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf []kernel.Raw
	for s := 0; s < src.NumStates(); s++ {
		if na := src.NumActions(s); na != 1 {
			t.Fatalf("state %d has %d actions, want 1", s, na)
		}
		buf = src.RawTransitions(s, 0, buf[:0])
		if len(buf) == 0 {
			t.Fatalf("state %d has no transitions", s)
		}
	}
}
