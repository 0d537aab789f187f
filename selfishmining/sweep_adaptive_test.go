package selfishmining

import (
	"context"
	"math"
	"testing"

	"repro/internal/results"
)

// adaptiveTestOptions is the small fork panel the adaptive tests share:
// cheap enough to solve exhaustively, with the d=2 f=2 threshold kink
// inside the grid so refinement has something to find.
func adaptiveTestOptions() SweepOptions {
	return SweepOptions{
		Gamma:      0.5,
		PGrid:      results.Grid(0, 0.3, 0.05),
		Configs:    []AttackConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 2}},
		MaxForkLen: 3,
		TreeWidth:  3,
		Epsilon:    1e-4,
		Adaptive:   true,
		Tolerance:  1e-3,
		MaxDepth:   3,
	}
}

func collectPoints(opts *SweepOptions) *[]SweepPoint {
	pts := &[]SweepPoint{}
	opts.OnPoint = func(pt SweepPoint) { *pts = append(*pts, pt) }
	return pts
}

// xIndex maps each x of a figure to its position, keyed by exact bits.
func xIndex(xs []float64) map[uint64]int {
	m := make(map[uint64]int, len(xs))
	for i, x := range xs {
		m[math.Float64bits(x)] = i
	}
	return m
}

// TestAdaptiveSupersetAndBitwiseVsUniform is the tentpole property test:
// the adaptive point set contains the full coarse grid; every adaptive
// point appears in the equal-fidelity exhaustive (uniform) refinement at
// a bitwise-identical x with bitwise-identical values; and coarse-grid
// values are bitwise equal to a plain uniform sweep over PGrid.
func TestAdaptiveSupersetAndBitwiseVsUniform(t *testing.T) {
	opts := adaptiveTestOptions()
	fig, err := NewService(ServiceConfig{}).SweepContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	exOpts := adaptiveTestOptions()
	exOpts.Exhaustive = true
	exhaustive, err := NewService(ServiceConfig{}).SweepContext(context.Background(), exOpts)
	if err != nil {
		t.Fatal(err)
	}

	uniOpts := adaptiveTestOptions()
	uniOpts.Adaptive, uniOpts.Tolerance, uniOpts.MaxDepth = false, 0, 0
	uniform, err := NewService(ServiceConfig{}).SweepContext(context.Background(), uniOpts)
	if err != nil {
		t.Fatal(err)
	}

	// Superset of the coarse grid, and strictly finer than it.
	byX := xIndex(fig.X)
	for _, p := range opts.PGrid {
		if _, ok := byX[math.Float64bits(p)]; !ok {
			t.Fatalf("adaptive X is missing coarse grid point %v", p)
		}
	}
	if len(fig.X) <= len(opts.PGrid) {
		t.Fatalf("adaptive sweep refined nothing: %d x-values for a %d-point grid", len(fig.X), len(opts.PGrid))
	}
	if len(fig.X) >= len(exhaustive.X) {
		t.Fatalf("adaptive solved %d x-values, exhaustive %d — no savings", len(fig.X), len(exhaustive.X))
	}

	// Bitwise equality against the exhaustive reference at every shared x.
	exByX := xIndex(exhaustive.X)
	for si, s := range fig.Series {
		ex := exhaustive.Series[si]
		if s.Name != ex.Name {
			t.Fatalf("series %d: adaptive %q vs exhaustive %q", si, s.Name, ex.Name)
		}
		for i, x := range fig.X {
			j, ok := exByX[math.Float64bits(x)]
			if !ok {
				t.Fatalf("adaptive x = %v missing from exhaustive grid", x)
			}
			if math.Float64bits(s.Values[i]) != math.Float64bits(ex.Values[j]) {
				t.Fatalf("series %q at p = %v: adaptive %.17g != exhaustive %.17g", s.Name, x, s.Values[i], ex.Values[j])
			}
		}
	}

	// Coarse points are bitwise equal to the plain uniform sweep's.
	for si, s := range fig.Series {
		uni := uniform.Series[si]
		for pi, p := range opts.PGrid {
			i := byX[math.Float64bits(p)]
			if math.Float64bits(s.Values[i]) != math.Float64bits(uni.Values[pi]) {
				t.Fatalf("series %q at coarse p = %v: adaptive %.17g != uniform %.17g", s.Name, p, s.Values[i], uni.Values[pi])
			}
		}
	}
}

// TestAdaptiveStreamDeterministicAndMatchesFigure checks the adaptive
// OnPoint contract: the stream is identical across worker counts and
// fresh services (values, order, metadata), wave depths never decrease,
// and every streamed value is the figure's value at that x, bitwise.
func TestAdaptiveStreamDeterministicAndMatchesFigure(t *testing.T) {
	run := func(workers int) ([]SweepPoint, *results.Figure) {
		opts := adaptiveTestOptions()
		opts.Workers = workers
		pts := collectPoints(&opts)
		fig, err := NewService(ServiceConfig{}).SweepContext(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return *pts, fig
	}
	one, figOne := run(1)
	eight, figEight := run(8)

	if len(one) != len(eight) {
		t.Fatalf("streamed %d points at 1 worker, %d at 8", len(one), len(eight))
	}
	for i := range one {
		// Sweeps is the documented exception to the determinism contract:
		// it reports work actually done, which warm-start order changes.
		a, b := one[i], eight[i]
		a.Sweeps, b.Sweeps = 0, 0
		if a != b {
			t.Fatalf("stream diverges at %d: 1 worker %+v, 8 workers %+v", i, one[i], eight[i])
		}
	}

	depth := 0
	for i, pt := range one {
		if pt.Depth < depth {
			t.Fatalf("stream depth went backwards at %d: %d after %d", i, pt.Depth, depth)
		}
		depth = pt.Depth
		if pt.Depth > 0 && pt.PIndex != -1 {
			t.Fatalf("refined point %d carries PIndex %d, want -1", i, pt.PIndex)
		}
		if pt.Depth == 0 && (pt.PIndex < 0 || math.Float64bits(figOne.X[xIndex(figOne.X)[math.Float64bits(pt.P)]]) != math.Float64bits(pt.P)) {
			t.Fatalf("coarse point %d not anchored to the grid: %+v", i, pt)
		}
	}

	// Streamed values are the figure's values, bitwise, on both runs.
	for _, tc := range []struct {
		pts []SweepPoint
		fig *results.Figure
	}{{one, figOne}, {eight, figEight}} {
		byX := xIndex(tc.fig.X)
		series := map[string][]float64{}
		for _, s := range tc.fig.Series {
			series[s.Name] = s.Values
		}
		for _, pt := range tc.pts {
			vals, ok := series[pt.Series]
			if !ok {
				t.Fatalf("streamed series %q missing from figure", pt.Series)
			}
			i, ok := byX[math.Float64bits(pt.P)]
			if !ok {
				t.Fatalf("streamed p = %v missing from figure X", pt.P)
			}
			if math.Float64bits(vals[i]) != math.Float64bits(pt.ERRev) {
				t.Fatalf("streamed %q at p = %v: %.17g, figure %.17g", pt.Series, pt.P, pt.ERRev, vals[i])
			}
		}
	}
}

// TestAdaptiveResumeSkipsSolvesBitwise replays a full checkpoint into a
// cold service and expects the identical figure with zero solves; a
// prefix checkpoint must re-solve only the missing points.
func TestAdaptiveResumeSkipsSolvesBitwise(t *testing.T) {
	opts := adaptiveTestOptions()
	pts := collectPoints(&opts)
	want, err := NewService(ServiceConfig{}).SweepContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	all := *pts

	assertSameFigure := func(got *results.Figure) {
		t.Helper()
		if len(got.X) != len(want.X) {
			t.Fatalf("resumed figure has %d x-values, want %d", len(got.X), len(want.X))
		}
		for i := range want.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				t.Fatalf("resumed X[%d] = %v, want %v", i, got.X[i], want.X[i])
			}
		}
		for si, s := range want.Series {
			for i := range s.Values {
				if math.Float64bits(got.Series[si].Values[i]) != math.Float64bits(s.Values[i]) {
					t.Fatalf("resumed series %q differs at %d", s.Name, i)
				}
			}
		}
	}

	full := adaptiveTestOptions()
	full.Resume = &SweepCheckpoint{Points: all}
	svc := NewService(ServiceConfig{})
	got, err := svc.SweepContext(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFigure(got)
	if solves := svc.Stats().Solves; solves != 0 {
		t.Fatalf("full checkpoint still solved %d points", solves)
	}

	partial := adaptiveTestOptions()
	partial.Resume = &SweepCheckpoint{Points: all[:len(all)/2]}
	svc = NewService(ServiceConfig{})
	got, err = svc.SweepContext(context.Background(), partial)
	if err != nil {
		t.Fatal(err)
	}
	assertSameFigure(got)
	resolved := int(svc.Stats().Solves)
	if resolved == 0 || resolved >= len(all) {
		t.Fatalf("prefix checkpoint of %d/%d points re-solved %d", len(all)/2, len(all), resolved)
	}
}

// TestUniformResumeSkipsSolves: the checkpoint path covers uniform sweeps
// too (jobs resume them through the same field).
func TestUniformResumeSkipsSolves(t *testing.T) {
	opts := adaptiveTestOptions()
	opts.Adaptive, opts.Tolerance, opts.MaxDepth = false, 0, 0
	pts := collectPoints(&opts)
	want, err := NewService(ServiceConfig{}).SweepContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	resumed := adaptiveTestOptions()
	resumed.Adaptive, resumed.Tolerance, resumed.MaxDepth = false, 0, 0
	resumed.Resume = &SweepCheckpoint{Points: *pts}
	svc := NewService(ServiceConfig{})
	got, err := svc.SweepContext(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if solves := svc.Stats().Solves; solves != 0 {
		t.Fatalf("full uniform checkpoint still solved %d points", solves)
	}
	for si, s := range want.Series {
		for i := range s.Values {
			if math.Float64bits(got.Series[si].Values[i]) != math.Float64bits(s.Values[i]) {
				t.Fatalf("resumed uniform series %q differs at %d", s.Name, i)
			}
		}
	}
}

// TestAdaptiveWarmStartsNeighbors: refined midpoints must seed from their
// freshly solved cell corners through the warm-start cache.
func TestAdaptiveWarmStartsNeighbors(t *testing.T) {
	opts := adaptiveTestOptions()
	svc := NewService(ServiceConfig{})
	if _, err := svc.SweepContext(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if hits := svc.Stats().WarmHits; hits == 0 {
		t.Fatal("adaptive refinement recorded no warm-start hits")
	}
}

func TestAdaptiveValidation(t *testing.T) {
	base := adaptiveTestOptions()
	for _, tc := range []struct {
		name   string
		mutate func(*SweepOptions)
	}{
		{"single point grid", func(o *SweepOptions) { o.PGrid = []float64{0.1} }},
		{"unsorted grid", func(o *SweepOptions) { o.PGrid = []float64{0, 0.2, 0.1} }},
		{"duplicate grid", func(o *SweepOptions) { o.PGrid = []float64{0, 0.1, 0.1} }},
		{"nan tolerance", func(o *SweepOptions) { o.Tolerance = math.NaN() }},
		{"tolerance without adaptive", func(o *SweepOptions) { o.Adaptive, o.MaxDepth = false, 0 }},
		{"duplicate config", func(o *SweepOptions) { o.Configs = []AttackConfig{{Depth: 1, Forks: 1}, {Depth: 1, Forks: 1}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			tc.mutate(&opts)
			if _, err := SweepContext(context.Background(), opts); err == nil {
				t.Fatalf("%s: expected error", tc.name)
			}
		})
	}
}

// TestAdaptiveMaxPointsBudget caps refinement and still returns a valid,
// deterministic figure.
func TestAdaptiveMaxPointsBudget(t *testing.T) {
	run := func() *results.Figure {
		opts := adaptiveTestOptions()
		opts.MaxPoints = 3
		fig, err := NewService(ServiceConfig{}).SweepContext(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	a, b := run(), run()
	if len(a.X) > len(adaptiveTestOptions().PGrid)+3 {
		t.Fatalf("budget of 3 refined points yielded %d x-values", len(a.X))
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("budgeted refinement nondeterministic: %d vs %d x-values", len(a.X), len(b.X))
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			t.Fatalf("budgeted X differs at %d", i)
		}
	}
}
