package selfishmining

import (
	"context"
	"math"
	"testing"
)

// The constants below were captured from the pre-kernel-refactor pipeline
// (the PR-2 service layer) at the test points of that PR's suite, printed
// with %.17g. The fork family's Analyze and Sweep outputs must stay
// BITWISE identical across the kernel/registry refactor: every retained
// quantity is a pure function of the binary search's exact sign decisions,
// so any drift here means the fork family's compiled structure, law
// resolution, or solver semantics changed.

type goldenAnalyze struct {
	params AttackParams
	errev  float64 // certified lower bound (BetaLow)
	upper  float64 // BetaUp
	iters  int
}

var goldenAnalyzePoints = []goldenAnalyze{
	{params: AttackParams{Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 4}, errev: 0.41046142578125, upper: 0.4105224609375, iters: 14},
	{params: AttackParams{Adversary: 0.3, Switching: 0.5, Depth: 1, Forks: 1, MaxForkLen: 4}, errev: 0.29998779296875, upper: 0.300048828125, iters: 14},
	{params: AttackParams{Adversary: 0.15, Switching: 0.25, Depth: 2, Forks: 2, MaxForkLen: 3}, errev: 0.18115234375, upper: 0.18121337890625, iters: 14},
	{params: AttackParams{Adversary: 0.35, Switching: 0, Depth: 2, Forks: 2, MaxForkLen: 4}, errev: 0.492431640625, upper: 0.49249267578125, iters: 14},
}

// TestGoldenForkAnalyzeBitwise pins the refactor's headline acceptance
// criterion: fork-family bound-only analyses through the service are
// bitwise identical to their pre-refactor values.
func TestGoldenForkAnalyzeBitwise(t *testing.T) {
	svc := NewService(ServiceConfig{})
	for _, g := range goldenAnalyzePoints {
		res, err := svc.AnalyzeContext(context.Background(), g.params, WithEpsilon(1e-4), WithBoundOnly())
		if err != nil {
			t.Fatalf("%v: %v", g.params, err)
		}
		if math.Float64bits(res.ERRev) != math.Float64bits(g.errev) {
			t.Errorf("%v: ERRev %.17g, golden %.17g", g.params, res.ERRev, g.errev)
		}
		if math.Float64bits(res.ERRevUpper) != math.Float64bits(g.upper) {
			t.Errorf("%v: ERRevUpper %.17g, golden %.17g", g.params, res.ERRevUpper, g.upper)
		}
		if res.Iterations != g.iters {
			t.Errorf("%v: %d binary-search iterations, golden %d", g.params, res.Iterations, g.iters)
		}
	}
}

// TestGoldenForkAnalyzeExplicitModelName: naming the default family must
// produce (and cache) exactly the same result as leaving Model empty.
func TestGoldenForkAnalyzeExplicitModelName(t *testing.T) {
	svc := NewService(ServiceConfig{})
	g := goldenAnalyzePoints[0]
	named := g.params
	named.Model = "fork"
	res, err := svc.AnalyzeContext(context.Background(), named, WithEpsilon(1e-4), WithBoundOnly())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.ERRev) != math.Float64bits(g.errev) {
		t.Errorf("explicit fork model: ERRev %.17g, golden %.17g", res.ERRev, g.errev)
	}
	// The empty name must hit the cache entry of the explicit name.
	_, info, err := svc.AnalyzeDetailedContext(context.Background(), g.params, WithEpsilon(1e-4), WithBoundOnly())
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached {
		t.Error("empty model name missed the cache entry of the explicit \"fork\" name")
	}
}

// goldenSweepSeries are the full series of the PR-2 sweep test grid
// (gamma=0.5, p in {0, 0.1, 0.2, 0.3}, configs 1x1 and 2x1, l=3,
// tree width 3, eps=1e-3). The single-tree(f=3) values here and in
// goldenAdaptiveSeries are the baseline's exact renewal-reward values,
// within 1.2e-16 of a dense linear solve of the same chain; they replaced
// power-iteration values that were off by up to 1.9e-12.
var goldenSweepSeries = map[string][]float64{
	"honest":           {0, 0.10000000000000001, 0.20000000000000001, 0.29999999999999999},
	"single-tree(f=3)": {0, 0.066582005539675831, 0.16850161146651091, 0.29890943722131202},
	"ours(d=1,f=1)":    {0, 0.099609375, 0.19921875, 0.2998046875},
	"ours(d=2,f=1)":    {0, 0.1142578125, 0.2451171875, 0.40234375},
}

// TestGoldenForkSweepBitwise pins the sweep half of the parity criterion.
func TestGoldenForkSweepBitwise(t *testing.T) {
	fig, err := SweepContext(context.Background(), SweepOptions{
		Gamma:      0.5,
		PGrid:      []float64{0, 0.1, 0.2, 0.3},
		Configs:    []AttackConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}},
		MaxForkLen: 3,
		TreeWidth:  3,
		Epsilon:    1e-3,
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(fig.Series) != len(goldenSweepSeries) {
		t.Fatalf("got %d series, golden %d", len(fig.Series), len(goldenSweepSeries))
	}
	for _, s := range fig.Series {
		want, ok := goldenSweepSeries[s.Name]
		if !ok {
			t.Errorf("unexpected series %q", s.Name)
			continue
		}
		for i := range want {
			if math.Float64bits(s.Values[i]) != math.Float64bits(want[i]) {
				t.Errorf("series %q point %d: %.17g, golden %.17g", s.Name, i, s.Values[i], want[i])
			}
		}
	}
}

// goldenAdaptiveX and goldenAdaptiveSeries pin a small adaptive fork
// sweep (gamma=0.5, coarse grid {0, 0.1, 0.2, 0.3}, config 2x1, l=3,
// tree width 3, eps=1e-3, tolerance 1e-3, max depth 2). At this coarse a
// grid every cell legitimately proves curvature beyond the tolerance, so
// the pinned refinement is the full depth-2 bisection — 13 x-values —
// and the pin covers the midpoint arithmetic, the refinement decisions
// and the solved values at once.
var (
	goldenAdaptiveX = []float64{
		0, 0.025000000000000001, 0.050000000000000003, 0.075000000000000011,
		0.10000000000000001, 0.125, 0.15000000000000002, 0.17500000000000002,
		0.20000000000000001, 0.22500000000000001, 0.25, 0.27500000000000002,
		0.29999999999999999,
	}
	goldenAdaptiveSeries = map[string][]float64{
		"honest": {
			0, 0.025000000000000001, 0.050000000000000003, 0.075000000000000011,
			0.10000000000000001, 0.125, 0.15000000000000002, 0.17500000000000002,
			0.20000000000000001, 0.22500000000000001, 0.25, 0.27500000000000002,
			0.29999999999999999,
		},
		"single-tree(f=3)": {
			0, 0.013467308904936167, 0.028975857632786449, 0.046653869825364701,
			0.066582005539675831, 0.088787935063220594, 0.11324292240313351,
			0.13986107624699323, 0.16850161146651091, 0.19897407235135209,
			0.23104611868756625, 0.26445321755624479, 0.29890943722131202,
		},
		"ours(d=2,f=1)": {
			0, 0.025390625, 0.0537109375, 0.0830078125, 0.1142578125,
			0.1455078125, 0.177734375, 0.2109375, 0.2451171875, 0.279296875,
			0.318359375, 0.3603515625, 0.40234375,
		},
	}
)

// TestGoldenAdaptiveForkSweepBitwise pins an adaptive sweep end to end:
// refined x-axis and every series value, bit for bit.
func TestGoldenAdaptiveForkSweepBitwise(t *testing.T) {
	fig, err := SweepContext(context.Background(), SweepOptions{
		Gamma:      0.5,
		PGrid:      []float64{0, 0.1, 0.2, 0.3},
		Configs:    []AttackConfig{{Depth: 2, Forks: 1}},
		MaxForkLen: 3,
		TreeWidth:  3,
		Epsilon:    1e-3,
		Adaptive:   true,
		Tolerance:  1e-3,
		MaxDepth:   2,
	})
	if err != nil {
		t.Fatalf("adaptive Sweep: %v", err)
	}
	if len(fig.X) != len(goldenAdaptiveX) {
		t.Fatalf("got %d x-values, golden %d: %v", len(fig.X), len(goldenAdaptiveX), fig.X)
	}
	for i, want := range goldenAdaptiveX {
		if math.Float64bits(fig.X[i]) != math.Float64bits(want) {
			t.Errorf("X[%d]: %.17g, golden %.17g", i, fig.X[i], want)
		}
	}
	if len(fig.Series) != len(goldenAdaptiveSeries) {
		t.Fatalf("got %d series, golden %d", len(fig.Series), len(goldenAdaptiveSeries))
	}
	for _, s := range fig.Series {
		want, ok := goldenAdaptiveSeries[s.Name]
		if !ok {
			t.Errorf("unexpected series %q", s.Name)
			continue
		}
		for i := range want {
			if math.Float64bits(s.Values[i]) != math.Float64bits(want[i]) {
				t.Errorf("series %q point %d: %.17g, golden %.17g", s.Name, i, s.Values[i], want[i])
			}
		}
	}
}
