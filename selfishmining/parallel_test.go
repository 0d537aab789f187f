package selfishmining

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"
)

// equalAnalyses asserts that two analyses are bitwise identical: the bound,
// the bracket, the search and sweep counts, the independently evaluated
// strategy revenue, and the strategy itself.
func equalAnalyses(t *testing.T, label string, a, b *Analysis) {
	t.Helper()
	if math.Float64bits(a.ERRev) != math.Float64bits(b.ERRev) {
		t.Errorf("%s: ERRev %v != %v", label, a.ERRev, b.ERRev)
	}
	if math.Float64bits(a.ERRevUpper) != math.Float64bits(b.ERRevUpper) {
		t.Errorf("%s: ERRevUpper %v != %v", label, a.ERRevUpper, b.ERRevUpper)
	}
	if math.Float64bits(a.StrategyERRev) != math.Float64bits(b.StrategyERRev) {
		t.Errorf("%s: StrategyERRev %v != %v", label, a.StrategyERRev, b.StrategyERRev)
	}
	if a.Iterations != b.Iterations || a.Sweeps != b.Sweeps {
		t.Errorf("%s: search (%d iters, %d sweeps) != (%d iters, %d sweeps)",
			label, a.Iterations, a.Sweeps, b.Iterations, b.Sweeps)
	}
	if len(a.Strategy) != len(b.Strategy) {
		t.Fatalf("%s: strategy lengths %d != %d", label, len(a.Strategy), len(b.Strategy))
	}
	for s := range a.Strategy {
		if a.Strategy[s] != b.Strategy[s] {
			t.Fatalf("%s: strategy diverges at state %d: %d vs %d", label, s, a.Strategy[s], b.Strategy[s])
		}
	}
}

// TestAnalyzeWorkersDeterminism is the end-to-end half of the chunked-sweep
// determinism argument: Analyze returns bitwise identical results at
// Workers=1 and Workers=4 across several (d, f) configurations.
func TestAnalyzeWorkersDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		params AttackParams
	}{
		{"d1_f1", AttackParams{Adversary: 0.25, Switching: 0.5, Depth: 1, Forks: 1, MaxForkLen: 4}},
		{"d2_f1", AttackParams{Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 4}},
		{"d2_f2", AttackParams{Adversary: 0.3, Switching: 0.25, Depth: 2, Forks: 2, MaxForkLen: 4}},
	}
	for _, tc := range cases {
		serial, err := AnalyzeContext(context.Background(), tc.params, WithWorkers(1))
		if err != nil {
			t.Fatalf("%s workers=1: %v", tc.name, err)
		}
		parallel, err := AnalyzeContext(context.Background(), tc.params, WithWorkers(4))
		if err != nil {
			t.Fatalf("%s workers=4: %v", tc.name, err)
		}
		equalAnalyses(t, tc.name, serial, parallel)
	}
}

// sweepPanel runs a reduced Figure-2 panel at the given pool size.
func sweepPanel(t *testing.T, workers int) []struct {
	Name   string
	Values []float64
} {
	t.Helper()
	fig, err := SweepContext(context.Background(), SweepOptions{
		Gamma:      0.5,
		PGrid:      []float64{0, 0.1, 0.2, 0.3},
		Configs:    []AttackConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}},
		MaxForkLen: 3,
		TreeWidth:  3,
		Epsilon:    1e-3,
		Workers:    workers,
	})
	if err != nil {
		t.Fatalf("SweepContext(workers=%d): %v", workers, err)
	}
	out := make([]struct {
		Name   string
		Values []float64
	}, len(fig.Series))
	for i, s := range fig.Series {
		out[i].Name, out[i].Values = s.Name, s.Values
	}
	return out
}

// TestSweepWorkersDeterminism: a sweep panel is bitwise identical whether
// the grid points run on one worker or race through a pool of four.
func TestSweepWorkersDeterminism(t *testing.T) {
	serial := sweepPanel(t, 1)
	for _, w := range []int{3, 4} {
		pooled := sweepPanel(t, w)
		if len(pooled) != len(serial) {
			t.Fatalf("workers=%d: %d series, serial %d", w, len(pooled), len(serial))
		}
		for i := range serial {
			if pooled[i].Name != serial[i].Name {
				t.Errorf("workers=%d: series %d named %q, serial %q", w, i, pooled[i].Name, serial[i].Name)
			}
			for j := range serial[i].Values {
				if math.Float64bits(pooled[i].Values[j]) != math.Float64bits(serial[i].Values[j]) {
					t.Errorf("workers=%d: series %q point %d: %v != serial %v",
						w, serial[i].Name, j, pooled[i].Values[j], serial[i].Values[j])
				}
			}
		}
	}
}

// TestAnalyzeConcurrent runs several multi-worker analyses at once; under
// -race this checks that concurrent Analyze calls (each fanning out its own
// sweep goroutines) share no state — both across package-level calls and
// on one fresh Service, where one request compiles the shape and solves on
// the compiled instance while the others solve on clones of its cached
// structure.
func TestAnalyzeConcurrent(t *testing.T) {
	grid := []float64{0.15, 0.2, 0.25, 0.3}
	want := make([]float64, len(grid))
	for i, p := range grid {
		res, err := AnalyzeContext(context.Background(), AttackParams{Adversary: p, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 4},
			WithWorkers(1), WithoutStrategyEval())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.ERRev
	}
	for _, analyze := range []func(context.Context, AttackParams, ...Option) (*Analysis, error){
		AnalyzeContext, NewService(ServiceConfig{}).AnalyzeContext,
	} {
		var wg sync.WaitGroup
		for i := range grid {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := analyze(context.Background(), AttackParams{Adversary: grid[i], Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 4},
					WithWorkers(2), WithoutStrategyEval())
				if err != nil {
					t.Errorf("p=%v: %v", grid[i], err)
					return
				}
				if math.Float64bits(res.ERRev) != math.Float64bits(want[i]) {
					t.Errorf("p=%v: concurrent ERRev %v != serial %v", grid[i], res.ERRev, want[i])
				}
			}(i)
		}
		wg.Wait()
	}
}

// TestSweepEmptyGrid: a non-nil empty p-grid is rejected before the pool
// starts, and an empty config list means the default curves.
func TestSweepEmptyGrid(t *testing.T) {
	if _, err := SweepContext(context.Background(), SweepOptions{
		Gamma:   0.5,
		PGrid:   []float64{},
		Configs: []AttackConfig{{Depth: 1, Forks: 1}},
		Workers: 4,
	}); err == nil {
		t.Fatal("Sweep accepted an empty grid")
	}
	opts := SweepOptions{
		Gamma:   0.5,
		PGrid:   []float64{0.1},
		Configs: []AttackConfig{},
		Workers: 4,
	}
	if err := opts.Normalize(); err != nil {
		t.Fatalf("Normalize with empty config list: %v", err)
	}
	if !slices.Equal(opts.Configs, Figure2Configs) {
		t.Errorf("empty config list normalized to %v, want Figure2Configs", opts.Configs)
	}
}

// TestSweepWorkersOption sanity-checks the pool against the serial
// reference values of the seed's TestSweepSmallGrid shape expectations.
func TestSweepWorkersOption(t *testing.T) {
	fig, err := SweepContext(context.Background(), SweepOptions{
		Gamma:      0.5,
		PGrid:      []float64{0, 0.1, 0.3},
		Configs:    []AttackConfig{{Depth: 2, Forks: 1}},
		MaxForkLen: 3,
		TreeWidth:  3,
		Epsilon:    1e-3,
		Workers:    4,
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	honest, ours := fig.Series[0], fig.Series[2]
	for i := range fig.X {
		if ours.Values[i] < honest.Values[i]-2e-3 {
			t.Errorf("p=%v: ours %v below honest %v", fig.X[i], ours.Values[i], honest.Values[i])
		}
	}
	if ours.Values[0] != 0 {
		t.Errorf("p=0 point = %v, want exact 0", ours.Values[0])
	}
}
