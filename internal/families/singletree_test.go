package families

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/kernel"
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
	st, err := baseline.NewSingleTree(baseline.SingleTreeParams{
		P: 0.3, Gamma: 0.5, MaxDepth: 4, MaxWidth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != st.NumStates() {
		t.Errorf("family explored %d states, baseline %d", n, st.NumStates())
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
