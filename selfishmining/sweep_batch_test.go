package selfishmining

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/kernel"
	"repro/internal/results"
)

// TestSplitWorkers pins the pool-split arithmetic: the whole worker budget
// is handed out whenever it is at least the pool size, with the remainder
// spread over the leading slots (the PR-8 fix for the 8-workers/3-tasks
// split, which used to strand two cores on a uniform 2/2/2).
func TestSplitWorkers(t *testing.T) {
	cases := []struct {
		workers, poolSize int
		want              []int
	}{
		{workers: 8, poolSize: 3, want: []int{3, 3, 2}},
		{workers: 8, poolSize: 4, want: []int{2, 2, 2, 2}},
		{workers: 7, poolSize: 2, want: []int{4, 3}},
		{workers: 5, poolSize: 5, want: []int{1, 1, 1, 1, 1}},
		{workers: 3, poolSize: 5, want: []int{1, 1, 1, 1, 1}}, // floor at 1
		{workers: 1, poolSize: 1, want: []int{1}},
	}
	for _, c := range cases {
		total := 0
		for w := 0; w < c.poolSize; w++ {
			got := splitWorkers(c.workers, c.poolSize, w)
			if got != c.want[w] {
				t.Errorf("splitWorkers(%d, %d, %d) = %d, want %d", c.workers, c.poolSize, w, got, c.want[w])
			}
			total += got
		}
		if c.workers >= c.poolSize && total != c.workers {
			t.Errorf("splitWorkers(%d, %d, ·) hands out %d workers, want the full budget", c.workers, c.poolSize, total)
		}
	}
}

func figuresBitwiseEqual(t *testing.T, tag string, got, want *results.Figure) {
	t.Helper()
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d x-values, want %d", tag, len(got.X), len(want.X))
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: X[%d] = %.17g, want %.17g", tag, i, got.X[i], want.X[i])
		}
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: %d series, want %d", tag, len(got.Series), len(want.Series))
	}
	bySeries := make(map[string][]float64, len(want.Series))
	for _, s := range want.Series {
		bySeries[s.Name] = s.Values
	}
	for _, s := range got.Series {
		ref, ok := bySeries[s.Name]
		if !ok {
			t.Errorf("%s: unexpected series %q", tag, s.Name)
			continue
		}
		for i := range ref {
			if math.Float64bits(s.Values[i]) != math.Float64bits(ref[i]) {
				t.Errorf("%s: series %q point %d: %.17g, want %.17g", tag, s.Name, i, s.Values[i], ref[i])
			}
		}
	}
}

// streamKey identifies one streamed attack point of a sweep.
type streamKey struct {
	series string
	pbits  uint64
}

// sweepStream runs opts on a fresh service at the given unit width and
// returns the figure plus the OnPoint stream, in delivery order and by
// point. It fails the test if a point streams twice or a streamed value
// differs from the figure's.
func sweepStream(t *testing.T, tag string, opts SweepOptions, width int) (*results.Figure, []SweepPoint, map[streamKey]SweepPoint) {
	t.Helper()
	var mu sync.Mutex
	var stream []SweepPoint
	opts.OnPoint = func(pt SweepPoint) {
		mu.Lock()
		defer mu.Unlock()
		stream = append(stream, pt)
	}
	fig, err := NewService(ServiceConfig{}).sweepContext(context.Background(), opts, width)
	if err != nil {
		t.Fatalf("%s width=%d: sweep: %v", tag, width, err)
	}
	byKey := make(map[streamKey]SweepPoint, len(stream))
	for _, pt := range stream {
		k := streamKey{pt.Series, math.Float64bits(pt.P)}
		if _, dup := byKey[k]; dup {
			t.Errorf("%s width=%d: point %v streamed twice", tag, width, k)
		}
		byKey[k] = pt
	}
	for _, s := range fig.Series {
		for i, v := range s.Values {
			pt, ok := byKey[streamKey{s.Name, math.Float64bits(fig.X[i])}]
			if ok && math.Float64bits(pt.ERRev) != math.Float64bits(v) { // baseline series are not streamed
				t.Errorf("%s width=%d: streamed %q p=%g ERRev %.17g != figure %.17g", tag, width, s.Name, fig.X[i], pt.ERRev, v)
			}
		}
	}
	return fig, stream, byKey
}

// samePoint reports whether two streamed points carry the same point and
// value bit for bit. Sweeps may differ: it counts the work of whichever
// warm start the point's unit happened to get.
func samePoint(a, b SweepPoint) bool {
	return a.Config == b.Config && a.Series == b.Series && a.PIndex == b.PIndex &&
		math.Float64bits(a.P) == math.Float64bits(b.P) && math.Float64bits(a.Gamma) == math.Float64bits(b.Gamma) &&
		a.Depth == b.Depth && math.Float64bits(a.ERRev) == math.Float64bits(b.ERRev)
}

// TestBatchedSweepMatchesSoloFigure is the sweep-level pin of the batching
// contract: for every registered family, uniform and adaptive, the default
// scheduler (multi-lane units where the configuration batches) computes
// the figure of the same scheduler at unit width 1 (every point solo) bit
// for bit, and streams the same points with the same values. The grid has
// nine nonzero points, so a batching configuration runs one full unit and
// a one-point remainder.
func TestBatchedSweepMatchesSoloFigure(t *testing.T) {
	grid := []float64{0, 0.03, 0.06, 0.09, 0.12, 0.15, 0.18, 0.21, 0.24, 0.27}
	for _, name := range families.Names() {
		for _, adaptive := range []bool{false, true} {
			opts := SweepOptions{Model: name, Gamma: 0.5, PGrid: grid, Epsilon: 1e-3, Adaptive: adaptive}
			if adaptive {
				opts.Tolerance, opts.MaxDepth = 1e-3, 2
			}
			if name == families.DefaultName {
				opts.Configs = []AttackConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}, {Depth: 2, Forks: 2}}
			}
			tag := fmt.Sprintf("%s adaptive=%v", name, adaptive)
			want, soloStream, solo := sweepStream(t, tag, opts, 1)
			got, stream, _ := sweepStream(t, tag, opts, kernel.DenseBatchWidth)
			figuresBitwiseEqual(t, tag, got, want)
			if len(stream) != len(soloStream) {
				t.Fatalf("%s: %d streamed points, solo streamed %d", tag, len(stream), len(soloStream))
			}
			if adaptive {
				// Adaptive sweeps stream in task order at any width.
				for i := range stream {
					if !samePoint(stream[i], soloStream[i]) {
						t.Errorf("%s: streamed point %d = %+v, solo %+v", tag, i, stream[i], soloStream[i])
					}
				}
				continue
			}
			for _, pt := range stream {
				if ref, ok := solo[streamKey{pt.Series, math.Float64bits(pt.P)}]; !ok || !samePoint(pt, ref) {
					t.Errorf("%s: streamed %+v, solo %+v", tag, pt, ref)
				}
			}
		}
	}
}

// TestSweepRejectsBadEpsilon: Algorithm 1 certifies an ε-tight bound only
// for a finite ε ≥ 0 (0 = default), so a NaN, infinite or negative
// epsilon is refused before any point solves — whether the points run solo
// (width 1) or in batched units.
func TestSweepRejectsBadEpsilon(t *testing.T) {
	for _, eps := range []float64{math.NaN(), math.Inf(1), -1e-4} {
		for _, width := range []int{1, kernel.DenseBatchWidth} {
			svc := NewService(ServiceConfig{})
			opts := SweepOptions{Gamma: 0.5, PGrid: []float64{0.1, 0.15, 0.2, 0.25, 0.3},
				Configs: []AttackConfig{{Depth: 2, Forks: 1}}, MaxForkLen: 3, Epsilon: eps}
			if _, err := svc.sweepContext(context.Background(), opts, width); err == nil {
				t.Errorf("epsilon %v width %d: sweep accepted", eps, width)
			}
			if st := svc.Stats(); st.Solves != 0 || st.SweepPoints != 0 {
				t.Errorf("epsilon %v width %d: %d solves, %d sweep points before the error", eps, width, st.Solves, st.SweepPoints)
			}
		}
	}
}

// batchRuleShapes are the fork shapes on either side of the lane budget:
// d2f2l5 (0.38 MiB per lane) fits it and d3f2l4 (9.5 MiB per lane) does
// not.
var batchRuleShapes = []struct {
	cfg  AttackConfig
	l    int
	fits bool
}{
	{AttackConfig{Depth: 2, Forks: 2}, 5, true},
	{AttackConfig{Depth: 3, Forks: 2}, 4, false},
}

func compileRuleShape(t *testing.T, cfg AttackConfig, l int) *kernel.Compiled {
	t.Helper()
	base, err := families.Compile(families.DefaultName, core.Params{
		P: 0.1, Gamma: 0.5, Depth: cfg.Depth, Forks: cfg.Forks, MaxLen: l,
	})
	if err != nil {
		t.Fatalf("compile d=%d f=%d l=%d: %v", cfg.Depth, cfg.Forks, l, err)
	}
	return base
}

// TestBatchSizeRule pins which Figure-2 shapes batch: fork d2f2l5 fits the
// lane budget and fork d3f2l4 does not. Shapes batch only where the
// assembly batch sweep runs.
func TestBatchSizeRule(t *testing.T) {
	for _, c := range batchRuleShapes {
		base := compileRuleShape(t, c.cfg, c.l)
		if got := laneBytes(base) <= batchLaneBudget; got != c.fits {
			t.Errorf("d=%d f=%d l=%d: %d bytes per lane, fits the budget = %v, want %v",
				c.cfg.Depth, c.cfg.Forks, c.l, laneBytes(base), got, c.fits)
		}
		if got, want := batches(base), c.fits && kernel.DenseBatchAsm(); got != want {
			t.Errorf("d=%d f=%d l=%d: batches = %v, want %v", c.cfg.Depth, c.cfg.Forks, c.l, got, want)
		}
	}
}

// TestBatchRuleImpliesKernelBatch: wherever the scheduler batches a shape,
// the kernel builds a full-width batch over it, so the scheduler never cuts
// a unit that kernel.NewBatch refuses.
func TestBatchRuleImpliesKernelBatch(t *testing.T) {
	lanes := make([]kernel.LaneParams, kernel.DenseBatchWidth)
	for i := range lanes {
		lanes[i] = kernel.LaneParams{P: 0.05 * float64(i), Gamma: 0.5}
	}
	for _, c := range batchRuleShapes {
		base := compileRuleShape(t, c.cfg, c.l)
		if !batches(base) {
			continue
		}
		if _, err := kernel.NewBatch(base, lanes); err != nil {
			t.Errorf("d=%d f=%d l=%d: the scheduler batches it, but NewBatch: %v", c.cfg.Depth, c.cfg.Forks, c.l, err)
		}
	}
}

// TestBatchedSweepServesResultCache: a repeat batched sweep on the same
// service must answer every point from the result cache the first run
// populated — no fresh solves — and still produce the identical figure.
func TestBatchedSweepServesResultCache(t *testing.T) {
	svc := NewService(ServiceConfig{})
	opts := SweepOptions{
		Gamma: 0.5, PGrid: []float64{0, 0.1, 0.2, 0.3},
		Configs: []AttackConfig{{Depth: 2, Forks: 1}}, MaxForkLen: 3,
		Epsilon: 1e-3,
	}
	first, err := svc.SweepContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("first batched sweep: %v", err)
	}
	solves := svc.Stats().Solves
	second, err := svc.SweepContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("second batched sweep: %v", err)
	}
	if got := svc.Stats().Solves; got != solves {
		t.Errorf("repeat batched sweep ran %d fresh solves, want 0", got-solves)
	}
	figuresBitwiseEqual(t, "cached repeat", second, first)
}

// TestBatchedSweepResume: a checkpoint collected from a batched sweep's
// OnPoint stream must let a second batched run skip those points and still
// assemble the bitwise-identical figure (the batched scheduler keeps the
// per-point resume semantics).
func TestBatchedSweepResume(t *testing.T) {
	opts := SweepOptions{
		Gamma: 0.5, PGrid: []float64{0, 0.1, 0.2, 0.3},
		Configs: []AttackConfig{{Depth: 2, Forks: 1}}, MaxForkLen: 3,
		Epsilon: 1e-3,
	}
	var ck SweepCheckpoint
	full := opts
	full.OnPoint = func(pt SweepPoint) { ck.Points = append(ck.Points, pt) }
	want, err := NewService(ServiceConfig{}).SweepContext(context.Background(), full)
	if err != nil {
		t.Fatalf("checkpoint sweep: %v", err)
	}
	// Resume from a strict prefix so the second run has genuine work left.
	resumed := opts
	resumed.Resume = &SweepCheckpoint{Points: ck.Points[:len(ck.Points)/2]}
	got, err := NewService(ServiceConfig{}).SweepContext(context.Background(), resumed)
	if err != nil {
		t.Fatalf("resumed batched sweep: %v", err)
	}
	figuresBitwiseEqual(t, "resumed", got, want)
}

// TestGoldenAdaptiveBatchSweepBitwise reruns the adaptive golden sweep
// through the batched scheduler: the refined x-axis and every series value
// must match the pinned pre-batching constants bit for bit.
func TestGoldenAdaptiveBatchSweepBitwise(t *testing.T) {
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
		t.Fatalf("adaptive batched Sweep: %v", err)
	}
	if len(fig.X) != len(goldenAdaptiveX) {
		t.Fatalf("got %d x-values, golden %d: %v", len(fig.X), len(goldenAdaptiveX), fig.X)
	}
	for i, want := range goldenAdaptiveX {
		if math.Float64bits(fig.X[i]) != math.Float64bits(want) {
			t.Errorf("X[%d]: %.17g, golden %.17g", i, fig.X[i], want)
		}
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
