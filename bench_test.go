// Benchmark harness: one benchmark per experimental artifact of the paper.
//
//   - BenchmarkTable1_*: wall-clock of the fully automated analysis per
//     attack configuration at γ = 0.5 (the paper's Table 1). The paper
//     reports Storm runtimes of 3.8 s (d=1,f=1) up to 77 761 s (d=4,f=2);
//     the reproduction target is the order-of-magnitude growth with d·f,
//     not the absolute numbers (different solver, different hardware).
//   - BenchmarkFigure2_*: one panel of Figure 2 per γ on a reduced grid
//     (the full grids are produced by cmd/sweep and recorded in
//     EXPERIMENTS.md).
//   - BenchmarkMicro_*: hot-path micro-benchmarks (transition enumeration,
//     one compiled VI sweep, final-strategy evaluation, Monte-Carlo
//     simulation throughput).
//   - *_Workers{1,4,8}: the same work at pinned worker counts, tracking the
//     speedup of the parallel solver engine (results are bitwise identical
//     at every worker count; only wall-clock changes).
//
// The d=4,f=2 analysis takes minutes per run; it is skipped unless the
// environment variable FULL_BENCH=1 is set.
package repro_test

import (
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/results"
	"repro/selfishmining"
)

// benchTable1 runs the full Algorithm-1 analysis once per iteration, as
// Table 1 times it.
func benchTable1(b *testing.B, d, f int) {
	b.Helper()
	params := selfishmining.AttackParams{
		Adversary: 0.3, Switching: 0.5, Depth: d, Forks: f, MaxForkLen: 4,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := selfishmining.AnalyzeContext(context.Background(), params,
			selfishmining.WithEpsilon(1e-4),
			selfishmining.WithoutStrategyEval(),
		)
		if err != nil {
			b.Fatal(err)
		}
		if res.ERRev < params.Adversary-1e-3 {
			b.Fatalf("suspicious ERRev %v below honest", res.ERRev)
		}
	}
}

func BenchmarkTable1_Ours_d1_f1(b *testing.B) { benchTable1(b, 1, 1) }
func BenchmarkTable1_Ours_d2_f1(b *testing.B) { benchTable1(b, 2, 1) }
func BenchmarkTable1_Ours_d2_f2(b *testing.B) { benchTable1(b, 2, 2) }
func BenchmarkTable1_Ours_d3_f2(b *testing.B) { benchTable1(b, 3, 2) }

func BenchmarkTable1_Ours_d4_f2(b *testing.B) {
	if os.Getenv("FULL_BENCH") == "" {
		b.Skip("9.4M-state model; set FULL_BENCH=1 to run (minutes per iteration)")
	}
	benchTable1(b, 4, 2)
}

func BenchmarkTable1_SingleTree_f5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := selfishmining.SingleTreeRevenue(0.3, 0.5, 4, 5)
		if err != nil {
			b.Fatal(err)
		}
		if v <= 0 {
			b.Fatalf("degenerate baseline value %v", v)
		}
	}
}

// benchFigure2Panel regenerates one γ-panel of Figure 2 on a reduced grid:
// p ∈ {0.1, 0.2, 0.3} and the three smallest attack configurations.
func benchFigure2Panel(b *testing.B, gamma float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := selfishmining.SweepContext(context.Background(), selfishmining.SweepOptions{
			Gamma: gamma,
			PGrid: []float64{0.1, 0.2, 0.3},
			Configs: []selfishmining.AttackConfig{
				{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}, {Depth: 2, Forks: 2},
			},
			Epsilon: 1e-4,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Shape check from the paper: ours(2,2) >= honest everywhere.
		honest, ours := fig.Series[0], fig.Series[4]
		for j := range fig.X {
			if ours.Values[j] < honest.Values[j]-1e-3 {
				b.Fatalf("gamma=%v p=%v: ours %v under honest %v", gamma, fig.X[j], ours.Values[j], honest.Values[j])
			}
		}
	}
}

func BenchmarkFigure2_PanelGamma000(b *testing.B) { benchFigure2Panel(b, 0) }
func BenchmarkFigure2_PanelGamma025(b *testing.B) { benchFigure2Panel(b, 0.25) }
func BenchmarkFigure2_PanelGamma050(b *testing.B) { benchFigure2Panel(b, 0.5) }
func BenchmarkFigure2_PanelGamma075(b *testing.B) { benchFigure2Panel(b, 0.75) }
func BenchmarkFigure2_PanelGamma100(b *testing.B) { benchFigure2Panel(b, 1) }

// benchFigure2PanelWorkers pins the sweep worker-pool size on the γ = 0.5
// panel over a denser grid (more points than the pool, so the outer-loop
// parallelism is actually exercised). Workers1 vs Workers4 is the
// parallel-vs-serial wall-clock comparison for a full panel.
func benchFigure2PanelWorkers(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := selfishmining.SweepContext(context.Background(), selfishmining.SweepOptions{
			Gamma: 0.5,
			PGrid: []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3},
			Configs: []selfishmining.AttackConfig{
				{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}, {Depth: 2, Forks: 2},
			},
			Epsilon: 1e-4,
			Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		honest, ours := fig.Series[0], fig.Series[4]
		for j := range fig.X {
			if ours.Values[j] < honest.Values[j]-1e-3 {
				b.Fatalf("p=%v: ours %v under honest %v", fig.X[j], ours.Values[j], honest.Values[j])
			}
		}
	}
}

func BenchmarkFigure2_Panel_Workers1(b *testing.B) { benchFigure2PanelWorkers(b, 1) }
func BenchmarkFigure2_Panel_Workers4(b *testing.B) { benchFigure2PanelWorkers(b, 4) }

// benchFamily runs a bound-only analysis of one model family at a fixed
// grid point (p=0.3, γ=0.5), so bench.json tracks the kernel's cost per
// family across the protocol-agnostic refactor.
func benchFamily(b *testing.B, model string, d, f, l int) {
	b.Helper()
	params := selfishmining.AttackParams{
		Model:     model,
		Adversary: 0.3, Switching: 0.5, Depth: d, Forks: f, MaxForkLen: l,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := selfishmining.AnalyzeContext(context.Background(), params,
			selfishmining.WithEpsilon(1e-4),
			selfishmining.WithBoundOnly(),
		)
		if err != nil {
			b.Fatal(err)
		}
		if res.ERRev < 0 || res.ERRev > 1 {
			b.Fatalf("model %s: ERRev %v out of range", model, res.ERRev)
		}
	}
}

func BenchmarkFamily_Fork_d2f2(b *testing.B)     { benchFamily(b, "fork", 2, 2, 4) }
func BenchmarkFamily_SingleTree_f5(b *testing.B) { benchFamily(b, "singletree", 1, 5, 4) }
func BenchmarkFamily_Nakamoto_l20(b *testing.B)  { benchFamily(b, "nakamoto", 1, 1, 20) }

// BenchmarkMicro_TransitionEnumeration measures raw transition generation
// over the full d=2, f=2 state space (the work of one compile pass).
func BenchmarkMicro_TransitionEnumeration(b *testing.B) {
	m, err := core.NewModel(core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 2, MaxLen: 4})
	if err != nil {
		b.Fatal(err)
	}
	var buf []core.Raw
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < m.NumStates(); s++ {
			for a := 0; a < m.NumActions(s); a++ {
				buf = m.RawTransitions(s, a, buf[:0])
			}
		}
	}
}

// BenchmarkMicro_CompiledVISweep measures one relative-value-iteration
// sweep over the compiled d=3, f=2 model (187 500 states).
func BenchmarkMicro_CompiledVISweep(b *testing.B) {
	comp, err := core.Compile(core.Params{P: 0.3, Gamma: 0.5, Depth: 3, Forks: 2, MaxLen: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// MaxIter=1 runs exactly one cold sweep; the expected non-convergence
		// error carries the partial bracket, so assert on the sweep count
		// rather than the error.
		res, err := comp.MeanPayoff(0.4, core.CompiledOptions{MaxIter: 1})
		if res == nil || res.Iters != 1 {
			b.Fatalf("expected exactly one sweep, got %+v (err: %v)", res, err)
		}
	}
}

// benchVISweepWorkers measures the same single compiled sweep at a pinned
// worker count; the Workers1/4/8 trio exposes the sweep-level parallel
// speedup in the benchmark trajectory.
func benchVISweepWorkers(b *testing.B, workers int) {
	b.Helper()
	comp, err := core.Compile(core.Params{P: 0.3, Gamma: 0.5, Depth: 3, Forks: 2, MaxLen: 4})
	if err != nil {
		b.Fatal(err)
	}
	comp.SetWorkers(workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// MaxIter=1 runs exactly one cold sweep; the expected non-convergence
		// error carries the partial bracket, so assert on the sweep count
		// rather than the error.
		res, err := comp.MeanPayoff(0.4, core.CompiledOptions{MaxIter: 1})
		if res == nil || res.Iters != 1 {
			b.Fatalf("expected exactly one sweep, got %+v (err: %v)", res, err)
		}
	}
}

func BenchmarkMicro_VISweep_Workers1(b *testing.B) { benchVISweepWorkers(b, 1) }
func BenchmarkMicro_VISweep_Workers4(b *testing.B) { benchVISweepWorkers(b, 4) }
func BenchmarkMicro_VISweep_Workers8(b *testing.B) { benchVISweepWorkers(b, 8) }

// BenchmarkMicro_BinarySearchStep measures a full sign-only solve on the
// compiled d=2, f=2 model, the unit of work of Algorithm 1.
func BenchmarkMicro_BinarySearchStep(b *testing.B) {
	comp, err := core.Compile(core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 2, MaxLen: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.MeanPayoff(0.35, core.CompiledOptions{Tol: 1e-6, SignOnly: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_Simulation measures Monte-Carlo throughput (steps/op) of
// the chain-substrate simulator under the optimal d=2, f=1 strategy.
func BenchmarkMicro_Simulation(b *testing.B) {
	params := selfishmining.AttackParams{
		Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 4,
	}
	res, err := selfishmining.AnalyzeContext(context.Background(), params)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Simulate(10000, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_Figure2Grid measures grid construction (results package).
func BenchmarkMicro_Figure2Grid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if g := results.Grid(0, 0.3, 0.01); len(g) != 31 {
			b.Fatalf("grid has %d points", len(g))
		}
	}
}

// BenchmarkMicro_StrategyEval measures the evaluation that closes every
// full analysis: the ERRev of the final strategy, r_A and r_A + r_H
// evaluated in one fused fixed-policy sweep loop, on the d=2, f=2 model.
func BenchmarkMicro_StrategyEval(b *testing.B) {
	comp, err := core.Compile(core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 2, MaxLen: 4})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := comp.MeanPayoff(0.44, core.CompiledOptions{Tol: 1e-6}); err != nil {
		b.Fatal(err)
	}
	policy := comp.GreedyPolicy(0.44)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.EvalERRev(policy, core.CompiledOptions{Tol: 1e-5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_SignOnlyOff quantifies the value of the sign-only early
// exit in Algorithm 1's inner solves: a full-precision solve at the same
// beta for comparison with BenchmarkMicro_BinarySearchStep.
func BenchmarkAblation_SignOnlyOff(b *testing.B) {
	comp, err := core.Compile(core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 2, MaxLen: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.MeanPayoff(0.35, core.CompiledOptions{Tol: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_WarmVsCold measures a full Algorithm-1 run with warm
// starts disabled by recompiling the model every iteration (the cost the
// compiled cache avoids across a Figure-2 sweep).
func BenchmarkAblation_ColdCompilePerPoint(b *testing.B) {
	params := core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 2, MaxLen: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		comp, err := core.Compile(params)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := analysis.Analyze(b.Context(), comp, analysis.Options{Epsilon: 1e-4, SkipStrategyEval: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ForkBound quantifies the cost of raising the finiteness
// bound l (the paper's Section 3.4 limitation): analysis time for l=5 vs
// the default l=4 benchmarked in Table 1.
func BenchmarkAblation_ForkBound_l5(b *testing.B) {
	params := selfishmining.AttackParams{
		Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 2, MaxForkLen: 5,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := selfishmining.AnalyzeContext(context.Background(), params,
			selfishmining.WithEpsilon(1e-4), selfishmining.WithoutStrategyEval()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze is the reference cost of one full Algorithm-1 analysis
// through the canonical v2 entry point (the mid-size d=2, f=2 Table-1
// configuration). BenchmarkAnalyze_DeadlineCtx runs the identical work
// under a live cancelable deadline context, so bench.json records both
// sides of the per-sweep ctx-check cost that TestCtxOverheadGuard bounds.
func BenchmarkAnalyze(b *testing.B) { benchAnalyzeCtx(b, context.Background()) }

func BenchmarkAnalyze_DeadlineCtx(b *testing.B) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	benchAnalyzeCtx(b, ctx)
}

func benchAnalyzeCtx(b *testing.B, ctx context.Context) {
	b.Helper()
	params := selfishmining.AttackParams{
		Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 2, MaxForkLen: 4,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := selfishmining.AnalyzeContext(ctx, params,
			selfishmining.WithEpsilon(1e-4),
			selfishmining.WithoutStrategyEval(),
		)
		if err != nil {
			b.Fatal(err)
		}
		if res.ERRev < params.Adversary-1e-3 {
			b.Fatalf("suspicious ERRev %v below honest", res.ERRev)
		}
	}
}

// TestCtxOverheadGuard asserts the per-sweep context check costs under 1%
// of the solver's hot loop: it times a fixed number of compiled
// value-iteration sweeps over the 187 500-state d=3, f=2 model under a
// Background context and under a live deadline context (whose Err() takes
// a mutex — the most expensive stdlib case), interleaved, taking the
// minimum of several repetitions to shed scheduler noise. The identical
// MaxIter bound makes both sides do bit-identical floating-point work.
//
// Wall-clock assertions do not belong in the default test run, so the
// guard only engages under BENCH_GUARD=1 — the CI bench job sets it.
func TestCtxOverheadGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("timing guard; set BENCH_GUARD=1 to run (CI bench job does)")
	}
	comp, err := core.Compile(core.Params{P: 0.3, Gamma: 0.5, Depth: 3, Forks: 2, MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	comp.SetWorkers(1) // serial sweeps: no pool jitter in the measurement
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	const sweeps = 20
	run := func(c context.Context) time.Duration {
		start := time.Now()
		res, _ := comp.MeanPayoffCtx(c, 0.4, core.CompiledOptions{MaxIter: sweeps})
		if res == nil || res.Iters != sweeps {
			t.Fatalf("expected exactly %d sweeps, got %+v", sweeps, res)
		}
		return time.Since(start)
	}
	run(context.Background()) // warm-up: page in the structure
	// Three interleaved series: two Background controls bracketing the
	// deadline-ctx runs. The control pair measures the runner's own
	// timing noise — if the machine cannot resolve 1% on identical work,
	// a 1% verdict about the ctx check would be fiction, so the guard
	// reports and skips instead of flaking.
	minBgA, minCtx, minBgB := time.Duration(1<<62), time.Duration(1<<62), time.Duration(1<<62)
	for rep := 0; rep < 9; rep++ {
		if d := run(context.Background()); d < minBgA {
			minBgA = d
		}
		if d := run(ctx); d < minCtx {
			minCtx = d
		}
		if d := run(context.Background()); d < minBgB {
			minBgB = d
		}
	}
	minBg := minBgA
	if minBgB < minBg {
		minBg = minBgB
	}
	noise := float64(minBgA-minBgB) / float64(minBg)
	if noise < 0 {
		noise = -noise
	}
	overhead := float64(minCtx-minBg) / float64(minBg)
	t.Logf("per-sweep ctx check: background mins %v/%v (noise %.3f%%), deadline-ctx min %v, overhead %.3f%%",
		minBgA, minBgB, noise*100, minCtx, overhead*100)
	if noise > 0.01 {
		t.Skipf("runner noise %.2f%% exceeds the 1%% resolution this guard asserts; measurement inconclusive", noise*100)
	}
	if overhead > 0.01 {
		t.Errorf("deadline-ctx sweeps are %.2f%% slower than background (min of 9 interleaved reps); the per-sweep check must stay <1%%", overhead*100)
	}
}
