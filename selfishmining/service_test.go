package selfishmining

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/results"
)

func newTestService(cfg ServiceConfig) *Service { return NewService(cfg) }

// TestServiceAnalyzeMatchesPackageAnalyze: a fresh service's solve and the
// package-level AnalyzeContext run the same compiled path, so every result
// field matches bitwise — bracket, counters, strategy and its revenue — for
// fork shapes and the other families' default shapes, in full and
// bound-only mode.
func TestServiceAnalyzeMatchesPackageAnalyze(t *testing.T) {
	shapes := []AttackParams{
		{Depth: 2, Forks: 1, MaxForkLen: 4},
		{Depth: 2, Forks: 2, MaxForkLen: 4},
	}
	for _, name := range []string{"nakamoto", "singletree"} {
		info, ok := ModelInfoFor(name)
		if !ok {
			t.Fatalf("family %q not registered", name)
		}
		shapes = append(shapes, AttackParams{
			Model: name, Depth: info.DefaultDepth, Forks: info.DefaultForks, MaxForkLen: info.DefaultMaxForkLen,
		})
	}
	for _, p := range shapes {
		p.Adversary, p.Switching = 0.3, 0.5
		for _, mode := range []struct {
			name string
			opts []Option
		}{{"full", nil}, {"bound-only", []Option{WithBoundOnly()}}} {
			label := p.String() + " " + mode.name
			direct, err := Analyze(p, mode.opts...)
			if err != nil {
				t.Fatalf("%s: package Analyze: %v", label, err)
			}
			served, err := newTestService(ServiceConfig{}).Analyze(p, mode.opts...)
			if err != nil {
				t.Fatalf("%s: service Analyze: %v", label, err)
			}
			equalAnalyses(t, label, direct, served)
		}
	}
}

// TestServiceCacheHitBitwise: a repeated query is served from the cache,
// bitwise identical, with hit/miss/solve accounting to match.
func TestServiceCacheHitBitwise(t *testing.T) {
	svc := newTestService(ServiceConfig{})
	p := smallParams()
	first, info1, err := svc.AnalyzeDetailed(p)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	if info1.Cached {
		t.Error("first call reported Cached")
	}
	second, info2, err := svc.AnalyzeDetailed(p)
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if !info2.Cached {
		t.Error("second call not served from cache")
	}
	equalAnalyses(t, "cached vs solved", first, second)

	st := svc.Stats()
	if st.Solves != 1 {
		t.Errorf("Solves = %d, want 1", st.Solves)
	}
	if st.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1", st.Compiles)
	}
	if st.Results.Hits != 1 || st.Results.Misses != 1 {
		t.Errorf("result cache hits/misses = %d/%d, want 1/1", st.Results.Hits, st.Results.Misses)
	}
	// The copies must have independent simulation substrates.
	var wg sync.WaitGroup
	for _, a := range []*Analysis{first, second} {
		wg.Add(1)
		go func(a *Analysis) {
			defer wg.Done()
			if _, err := a.Simulate(2000, 7); err != nil {
				t.Errorf("Simulate on served copy: %v", err)
			}
		}(a)
	}
	wg.Wait()
}

// TestServiceStructureShared: distinct (p, γ) points of one attack shape
// compile the structure exactly once.
func TestServiceStructureShared(t *testing.T) {
	svc := newTestService(ServiceConfig{})
	base := smallParams()
	for _, p := range []float64{0.2, 0.25, 0.3} {
		q := base
		q.Adversary = p
		if _, err := svc.Analyze(q); err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
	}
	st := svc.Stats()
	if st.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1 (structure shared across p)", st.Compiles)
	}
	if st.Solves != 3 {
		t.Errorf("Solves = %d, want 3", st.Solves)
	}
	if st.Structures.Hits < 2 {
		t.Errorf("structure cache hits = %d, want >= 2", st.Structures.Hits)
	}
}

// TestServiceCoalescesConcurrentIdentical: many concurrent identical
// requests produce exactly one solve; every caller gets a bitwise identical
// answer. (Run under -race in CI, this also checks the flight/cache
// synchronization.)
func TestServiceCoalescesConcurrentIdentical(t *testing.T) {
	svc := newTestService(ServiceConfig{})
	p := smallParams()
	const callers = 8
	res := make([]*Analysis, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = svc.Analyze(p)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < callers; i++ {
		equalAnalyses(t, "concurrent caller", res[0], res[i])
	}
	st := svc.Stats()
	if st.Solves != 1 {
		t.Errorf("Solves = %d, want 1 (coalesced+cached)", st.Solves)
	}
	t.Logf("coalesced %d of %d callers, %d cache hits", st.Coalesced, callers, st.Results.Hits)
}

// TestServiceBoundOnly: a bound-only request certifies the same bracket as
// the full analysis, carries no strategy, and strategy-dependent methods
// fail cleanly.
func TestServiceBoundOnly(t *testing.T) {
	svc := newTestService(ServiceConfig{})
	p := smallParams()
	full, err := svc.Analyze(p)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	bound, err := svc.Analyze(p, WithBoundOnly())
	if err != nil {
		t.Fatalf("bound-only: %v", err)
	}
	if math.Float64bits(bound.ERRev) != math.Float64bits(full.ERRev) ||
		math.Float64bits(bound.ERRevUpper) != math.Float64bits(full.ERRevUpper) {
		t.Errorf("bound-only bracket [%v, %v] != full [%v, %v]",
			bound.ERRev, bound.ERRevUpper, full.ERRev, full.ERRevUpper)
	}
	if bound.Strategy != nil || !IsSkipped(bound.StrategyERRev) {
		t.Error("bound-only result carries a strategy")
	}
	if _, err := bound.Simulate(100, 1); !errors.Is(err, ErrBoundOnly) {
		t.Errorf("Simulate on bound-only = %v, want ErrBoundOnly", err)
	}
	if _, err := bound.Profile(); !errors.Is(err, ErrBoundOnly) {
		t.Errorf("Profile on bound-only = %v, want ErrBoundOnly", err)
	}
}

// TestServiceWarmVsColdBitwise is the warm-start acceptance test: a fine
// p-grid swept with warm starts enabled is bitwise identical to the same
// sweep with warm starts disabled, while the warm service demonstrably
// seeds solves and does less sweep work. The grid is longer than one
// batched unit, so later units seed from the vectors earlier ones cached.
func TestServiceWarmVsColdBitwise(t *testing.T) {
	opts := SweepOptions{
		Gamma: 0.5,
		PGrid: []float64{0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16, 0.18, 0.2,
			0.22, 0.24, 0.26, 0.28, 0.3},
		Configs:    []AttackConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}},
		MaxForkLen: 3,
		TreeWidth:  3,
		Epsilon:    1e-3,
		Workers:    1, // sequential grid maximizes warm reuse
	}
	warmSvc := newTestService(ServiceConfig{})
	warmFig, err := warmSvc.Sweep(opts)
	if err != nil {
		t.Fatalf("warm sweep: %v", err)
	}
	coldSvc := newTestService(ServiceConfig{WarmCacheSize: -1})
	coldFig, err := coldSvc.Sweep(opts)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	if len(warmFig.Series) != len(coldFig.Series) {
		t.Fatalf("series count %d != %d", len(warmFig.Series), len(coldFig.Series))
	}
	for si := range warmFig.Series {
		for pi := range warmFig.X {
			w, c := warmFig.Series[si].Values[pi], coldFig.Series[si].Values[pi]
			if math.Float64bits(w) != math.Float64bits(c) {
				t.Errorf("series %q p=%v: warm %v != cold %v",
					warmFig.Series[si].Name, warmFig.X[pi], w, c)
			}
		}
	}
	wst, cst := warmSvc.Stats(), coldSvc.Stats()
	if wst.WarmHits == 0 {
		t.Error("warm service never used a seed")
	}
	if cst.WarmHits != 0 {
		t.Errorf("cold service used %d seeds with warm cache disabled", cst.WarmHits)
	}
	t.Logf("warm hits: %d of %d solves", wst.WarmHits, wst.Solves)
}

// TestSweepDegenerateGridDeterminism pins a regression: at dyadic grid
// points of the d=1, f=1 curve (e.g. p = 0.25), the binary search probes
// β = p exactly, where the optimal mean payoff is exactly zero. The
// sign-only solve then bottoms out at its width floor, and the decision
// must come from the fixed numerically-zero rule — deciding by the bracket
// midpoint's sign (noise at 1e-17) made the panel differ between worker
// counts, because warm-start seeding varies with pool scheduling.
func TestSweepDegenerateGridDeterminism(t *testing.T) {
	run := func(workers int) *results.Figure {
		fig, err := NewService(ServiceConfig{}).Sweep(SweepOptions{
			Gamma:   0.5,
			PGrid:   []float64{0.125, 0.25, 0.3}, // dyadic points probe beta = p exactly
			Configs: []AttackConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}},
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fig
	}
	ref := run(1)
	for _, w := range []int{2, 4} {
		got := run(w)
		for si := range ref.Series {
			for pi := range ref.X {
				a, b := ref.Series[si].Values[pi], got.Series[si].Values[pi]
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("series %q p=%v: workers=1 %v != workers=%d %v",
						ref.Series[si].Name, ref.X[pi], a, w, b)
				}
			}
		}
	}
	// The degenerate point itself: the d=1 attack cannot beat honest mining
	// at p = 0.25, and the fixed rule recovers the exact bound.
	var ours []float64
	for _, series := range ref.Series {
		if series.Name == "ours(d=1,f=1)" {
			ours = series.Values
		}
	}
	if ours == nil {
		t.Fatal("ours(d=1,f=1) series missing")
	}
	if ours[1] != 0.25 {
		t.Errorf("d=1 f=1 at p=0.25: ERRev %v, want exactly 0.25", ours[1])
	}
}

// TestServiceSweepResultReuse: sweeping the same panel twice on one service
// answers every attack point from the result cache, bitwise identically.
func TestServiceSweepResultReuse(t *testing.T) {
	svc := newTestService(ServiceConfig{})
	opts := SweepOptions{
		Gamma:      0.25,
		PGrid:      []float64{0, 0.1, 0.2},
		Configs:    []AttackConfig{{Depth: 1, Forks: 1}},
		MaxForkLen: 3,
		TreeWidth:  3,
		Epsilon:    1e-3,
	}
	first, err := svc.Sweep(opts)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	solvesAfterFirst := svc.Stats().Solves
	second, err := svc.Sweep(opts)
	if err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	if st := svc.Stats(); st.Solves != solvesAfterFirst {
		t.Errorf("second sweep solved %d new points, want 0", st.Solves-solvesAfterFirst)
	}
	for si := range first.Series {
		for pi := range first.X {
			a, b := first.Series[si].Values[pi], second.Series[si].Values[pi]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("series %q p=%v: %v != %v on cached resweep", first.Series[si].Name, first.X[pi], a, b)
			}
		}
	}
}

// TestServiceAnalyzeBatch: duplicates inside a batch are deduplicated to
// one solve each, results align with requests, and copies are independent.
func TestServiceAnalyzeBatch(t *testing.T) {
	svc := newTestService(ServiceConfig{})
	a := smallParams()
	b := smallParams()
	b.Adversary = 0.2
	reqs := []AttackParams{a, b, a, a, b}
	out, err := svc.AnalyzeBatch(reqs)
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	if len(out) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(out), len(reqs))
	}
	if st := svc.Stats(); st.Solves != 2 {
		t.Errorf("Solves = %d, want 2 (batch deduplication)", st.Solves)
	}
	equalAnalyses(t, "batch dup a", out[0], out[2])
	equalAnalyses(t, "batch dup a", out[0], out[3])
	equalAnalyses(t, "batch dup b", out[1], out[4])
	if out[0].Params != a || out[1].Params != b {
		t.Error("batch results misaligned with requests")
	}
	if out[0] == out[2] {
		t.Error("duplicate requests share one result instance")
	}
}

func TestServiceAnalyzeBatchError(t *testing.T) {
	svc := newTestService(ServiceConfig{})
	bad := smallParams()
	bad.Adversary = 1.5
	if _, err := svc.AnalyzeBatch([]AttackParams{smallParams(), bad}); err == nil {
		t.Fatal("invalid batch request accepted")
	}
	if out, err := svc.AnalyzeBatch(nil); err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %v", out, err)
	}
}

// TestServiceMaxConcurrent: a concurrency limit of 1 serializes solves
// without deadlocking or changing results.
func TestServiceMaxConcurrent(t *testing.T) {
	svc := newTestService(ServiceConfig{MaxConcurrent: 1})
	ref := newTestService(ServiceConfig{})
	ps := []float64{0.2, 0.25, 0.3}
	res := make([]*Analysis, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p float64) {
			defer wg.Done()
			q := smallParams()
			q.Adversary = p
			var err error
			if res[i], err = svc.Analyze(q); err != nil {
				t.Errorf("p=%v: %v", p, err)
			}
		}(i, p)
	}
	wg.Wait()
	for i, p := range ps {
		q := smallParams()
		q.Adversary = p
		want, err := ref.Analyze(q)
		if err != nil {
			t.Fatalf("ref p=%v: %v", p, err)
		}
		equalAnalyses(t, "limited vs unlimited", want, res[i])
	}
}

// TestNonFiniteEpsilonRejected: a NaN ε would end the binary search
// immediately (every comparison false) and poison the service's map keys
// (NaN never compares equal, so singleflight entries could never be
// removed); both entry points must reject it.
func TestNonFiniteEpsilonRejected(t *testing.T) {
	svc := newTestService(ServiceConfig{})
	for _, eps := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := svc.Analyze(smallParams(), WithEpsilon(eps)); err == nil {
			t.Errorf("service accepted epsilon %v", eps)
		}
		if _, err := Analyze(smallParams(), WithEpsilon(eps)); err == nil {
			t.Errorf("package Analyze accepted epsilon %v", eps)
		}
	}
	if st := svc.Stats(); st.InFlight != 0 {
		t.Errorf("InFlight = %d after rejected requests, want 0", st.InFlight)
	}
}

// TestServiceKeyCanonicalization: requests that differ only in redundant
// option spellings (default ε vs explicit, -0 vs 0) share a cache entry.
func TestServiceKeyCanonicalization(t *testing.T) {
	svc := newTestService(ServiceConfig{})
	p := smallParams()
	p.Switching = 0.0
	if _, err := svc.Analyze(p); err != nil {
		t.Fatal(err)
	}
	q := p
	q.Switching = math.Copysign(0, -1) // -0.0
	_, info, err := svc.AnalyzeDetailed(q, WithEpsilon(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached {
		t.Error("canonically equal request missed the cache")
	}
}

// TestServiceRepeatedQueryThroughput is the acceptance check that the
// result cache delivers at least a 10x repeated-query speedup over
// uncached analysis. The real margin is orders of magnitude; 10x leaves
// plenty of room for noisy CI machines.
func TestServiceRepeatedQueryThroughput(t *testing.T) {
	svc := newTestService(ServiceConfig{})
	p := smallParams()
	start := time.Now()
	if _, err := svc.Analyze(p); err != nil {
		t.Fatal(err)
	}
	uncached := time.Since(start)

	const repeats = 50
	start = time.Now()
	for i := 0; i < repeats; i++ {
		if _, err := svc.Analyze(p); err != nil {
			t.Fatal(err)
		}
	}
	perCached := time.Since(start) / repeats
	if perCached*10 > uncached {
		t.Errorf("cached query %v not 10x faster than uncached %v", perCached, uncached)
	}
	t.Logf("uncached %v, cached %v (%.0fx)", uncached, perCached, float64(uncached)/float64(perCached))
}

// BenchmarkServiceAnalyzeCached measures repeated-query throughput with a
// hot result cache — compare against BenchmarkServiceAnalyzeUncached for
// the serving layer's speedup (acceptance: >= 10x).
func BenchmarkServiceAnalyzeCached(b *testing.B) {
	svc := NewService(ServiceConfig{})
	p := AttackParams{Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 2, MaxForkLen: 4}
	if _, err := svc.Analyze(p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Analyze(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceAnalyzeUncached disables the result cache, so every
// query re-solves (the structure cache still avoids recompilation).
func BenchmarkServiceAnalyzeUncached(b *testing.B) {
	svc := NewService(ServiceConfig{ResultCacheSize: -1})
	p := AttackParams{Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 2, MaxForkLen: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Analyze(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSweepWarm measures a fine-grid bound-only sweep with the
// full serving stack (structure cache + warm starts), sequential to expose
// the per-point cost.
func BenchmarkServiceSweepWarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc := NewService(ServiceConfig{})
		if _, err := svc.Sweep(SweepOptions{
			Gamma:   0.5,
			PGrid:   []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3},
			Configs: []AttackConfig{{Depth: 2, Forks: 1}},
			Epsilon: 1e-4,
			Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSweepCold is BenchmarkServiceSweepWarm with warm starts
// disabled; the delta is the warm-start saving.
func BenchmarkServiceSweepCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc := NewService(ServiceConfig{WarmCacheSize: -1})
		if _, err := svc.Sweep(SweepOptions{
			Gamma:   0.5,
			PGrid:   []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3},
			Configs: []AttackConfig{{Depth: 2, Forks: 1}},
			Epsilon: 1e-4,
			Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
