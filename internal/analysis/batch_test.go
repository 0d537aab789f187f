package analysis

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// skipWithoutBatch skips a test that needs a batch to run: the AVX2
// assembly is the only batch sweep, so elsewhere AnalyzeBatch fails.
func skipWithoutBatch(t *testing.T) {
	t.Helper()
	if !kernel.DenseBatchAsm() {
		t.Skip("no AVX2 batch sweep on this machine")
	}
}

// runCounters snapshots a backend's analysis_runs_total and the sample
// count of its analysis_seconds.
func runCounters(backend string) [2]uint64 {
	return [2]uint64{analysisRuns.With(backend).Value(), analysisSeconds.With(backend).Count()}
}

// assertNoRunCounted fails if a rejected analysis moved the backend's run
// counter or run timer since before was taken.
func assertNoRunCounted(t *testing.T, backend, what string, before [2]uint64) {
	t.Helper()
	if after := runCounters(backend); after != before {
		t.Errorf("%s moved analysis_runs_total{backend=%s} by %d and analysis_seconds by %d samples, want 0",
			what, backend, after[0]-before[0], after[1]-before[1])
	}
}

// batchLaneGrid spreads K lanes over (p, γ) so lanes converge at different
// speeds and retire from the batched solves in scrambled orders.
func batchLaneGrid(k int) []BatchLane {
	lanes := make([]BatchLane, k)
	for i := range lanes {
		lanes[i] = BatchLane{
			P:     0.05 + 0.3*float64(i)/float64(k),
			Gamma: float64(i%3) / 2,
		}
	}
	return lanes
}

func soloCompiled(t *testing.T, name string, lane BatchLane, shape core.Params, opts Options) *Result {
	t.Helper()
	p := shape
	p.P, p.Gamma = lane.P, lane.Gamma
	comp, err := families.Compile(name, p)
	if err != nil {
		t.Fatalf("families.Compile(%s, p=%v): %v", name, lane.P, err)
	}
	if lane.InitialValues != nil {
		opts.InitialValues = lane.InitialValues
	}
	opts.SkipStrategy = true
	res, err := Analyze(context.Background(), comp, opts)
	if err != nil {
		t.Fatalf("solo Analyze(%s, p=%v): %v", name, lane.P, err)
	}
	return res
}

func sameAnalysis(t *testing.T, tag string, ln int, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.ERRev) != math.Float64bits(want.ERRev) ||
		math.Float64bits(got.BetaLow) != math.Float64bits(want.BetaLow) ||
		math.Float64bits(got.BetaUp) != math.Float64bits(want.BetaUp) {
		t.Errorf("%s lane %d: ERRev %v [%v, %v] != solo %v [%v, %v]",
			tag, ln, got.ERRev, got.BetaLow, got.BetaUp, want.ERRev, want.BetaLow, want.BetaUp)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("%s lane %d: Iterations = %d, solo = %d", tag, ln, got.Iterations, want.Iterations)
	}
	if got.Sweeps != want.Sweeps {
		t.Errorf("%s lane %d: Sweeps = %d, solo = %d", tag, ln, got.Sweeps, want.Sweeps)
	}
}

// TestAnalyzeBatchMatchesSoloPerFamily is the analysis-level pin of the
// batching contract: for every registered family and lane counts
// {1, 2, 7, 8} with mixed (p, γ) per lane, the batched
// Algorithm 1 must reproduce each lane's solo compiled analysis bitwise —
// ERRev, final bracket, binary-search steps, and (because every inner
// batched solve is bitwise equal to its solo counterpart) the per-lane
// sweep totals.
func TestAnalyzeBatchMatchesSoloPerFamily(t *testing.T) {
	skipWithoutBatch(t)
	const eps = 1e-3
	for _, name := range families.Names() {
		fam, err := families.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		d, f, l := fam.DefaultShape()
		shape := core.Params{Depth: d, Forks: f, MaxLen: l}
		for _, k := range []int{1, 2, 7, 8} {
			lanes := batchLaneGrid(k)
			p := shape
			p.P, p.Gamma = lanes[0].P, lanes[0].Gamma
			comp, err := families.Compile(name, p)
			if err != nil {
				t.Fatalf("families.Compile(%s): %v", name, err)
			}
			opts := Options{Epsilon: eps, SkipStrategy: true}
			got, err := AnalyzeBatch(context.Background(), comp, lanes, opts)
			if err != nil {
				t.Fatalf("AnalyzeBatch(%s, k=%d): %v", name, k, err)
			}
			for ln := range lanes {
				want := soloCompiled(t, name, lanes[ln], shape, Options{Epsilon: eps})
				sameAnalysis(t, name, ln, &got[ln].Result, want)
				if got[ln].Values == nil {
					t.Errorf("%s lane %d: batched analysis returned no values", name, ln)
				}
			}
		}
	}
}

// TestAnalyzeBatchWarmLanesMatchSolo seeds some lanes of one batch while
// others run cold: per lane the trajectory must match the solo analysis
// with the identical seed — including Sweeps, which DO depend on the seed.
func TestAnalyzeBatchWarmLanesMatchSolo(t *testing.T) {
	skipWithoutBatch(t)
	const eps = 1e-3
	shape := core.Params{Depth: 2, Forks: 1, MaxLen: 4}
	lanes := batchLaneGrid(5)
	// Seed odd lanes with the converged values of a neighboring point.
	for i := range lanes {
		if i%2 == 0 {
			continue
		}
		p := shape
		p.P, p.Gamma = math.Min(1, lanes[i].P+0.01), lanes[i].Gamma
		comp, err := families.Compile("fork", p)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if _, err := Analyze(context.Background(), comp, Options{Epsilon: eps, SkipStrategy: true}); err != nil {
			t.Fatalf("seed analysis: %v", err)
		}
		lanes[i].InitialValues = comp.Values()
	}
	p := shape
	p.P, p.Gamma = lanes[0].P, lanes[0].Gamma
	comp, err := families.Compile("fork", p)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	got, err := AnalyzeBatch(context.Background(), comp, lanes, Options{Epsilon: eps, SkipStrategy: true})
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	for ln := range lanes {
		want := soloCompiled(t, "fork", lanes[ln], shape, Options{Epsilon: eps})
		sameAnalysis(t, "warm", ln, &got[ln].Result, want)
	}
}

// TestAnalyzeBatchValidation: malformed batches are rejected up front, and
// a rejected batch counts no Algorithm 1 run and times none.
func TestAnalyzeBatchValidation(t *testing.T) {
	comp, err := families.Compile("fork", core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 3})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	lanes := batchLaneGrid(2)
	bad := batchLaneGrid(2)
	bad[1].InitialValues = make([]float64, 3)
	for _, c := range []struct {
		what  string
		lanes []BatchLane
		opts  Options
	}{
		{"zero lanes", nil, Options{SkipStrategy: true}},
		{"nine lanes", batchLaneGrid(9), Options{SkipStrategy: true}},
		{"SkipStrategy=false", lanes, Options{}},
		{"Resume", lanes, Options{SkipStrategy: true, Resume: &Checkpoint{BetaUp: 1}}},
		{"OnCheckpoint", lanes, Options{SkipStrategy: true, OnCheckpoint: func(Checkpoint) {}}},
		{"a wrong-length warm-start vector", bad, Options{SkipStrategy: true}},
	} {
		before := runCounters(backendBatch)
		if _, err := AnalyzeBatch(context.Background(), comp, c.lanes, c.opts); err == nil {
			t.Errorf("batched analysis accepted %s", c.what)
		}
		assertNoRunCounted(t, backendBatch, "batch with "+c.what, before)
	}
}

// TestAnalyzeBatchCancel: cancellation surfaces the partial per-lane
// brackets with an error wrapping ctx.Err, mirroring the solo contract.
func TestAnalyzeBatchCancel(t *testing.T) {
	skipWithoutBatch(t)
	comp, err := families.Compile("fork", core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AnalyzeBatch(ctx, comp, batchLaneGrid(3), Options{Epsilon: 1e-4, SkipStrategy: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batched analysis: err = %v, want context.Canceled", err)
	}
	if len(res) != 3 {
		t.Fatalf("partial results cover %d lanes, want 3", len(res))
	}
	for ln, r := range res {
		if r.BetaLow != 0 || r.BetaUp != 1 || r.Iterations != 0 {
			t.Errorf("lane %d: partial result %+v after zero steps", ln, r.Result)
		}
	}
}

// TestAnalyzeBatchCountsRequestedLanes pins the batch backend's counters to
// the definitions in docs/OBSERVABILITY.md: a 3-lane batched analysis (padded
// to the 8-lane width of the assembly sweep) is three Algorithm 1
// runs, and its step, kernel solve and sweep counters move by exactly the
// three lanes' Iterations and Sweeps — idle padding lanes count nowhere.
func TestAnalyzeBatchCountsRequestedLanes(t *testing.T) {
	skipWithoutBatch(t)
	comp, err := families.Compile("fork", core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	reg := obs.Default()
	runs, steps := analysisRuns.With(backendBatch), analysisSteps.With(backendBatch)
	solves := reg.Counter("kernel_solves_total", "")
	sweeps := reg.Counter("kernel_solve_sweeps_total", "")
	lanesTotal := reg.Counter("kernel_batch_lanes_total", "")
	before := []uint64{runs.Value(), steps.Value(), solves.Value(), sweeps.Value(), lanesTotal.Value()}

	res, err := AnalyzeBatch(context.Background(), comp, batchLaneGrid(3), Options{Epsilon: 1e-3, SkipStrategy: true})
	if err != nil {
		t.Fatalf("batched analysis: %v", err)
	}
	var wantSteps, wantSweeps uint64
	for _, r := range res {
		wantSteps += uint64(r.Iterations)
		wantSweeps += uint64(r.Sweeps)
	}
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"analysis_runs_total{backend=batch}", runs.Value() - before[0], 3},
		{"analysis_steps_total{backend=batch}", steps.Value() - before[1], wantSteps},
		{"kernel_solves_total", solves.Value() - before[2], wantSteps},
		{"kernel_solve_sweeps_total", sweeps.Value() - before[3], wantSweeps},
		{"kernel_batch_lanes_total", lanesTotal.Value() - before[4], 3},
	} {
		if c.got != c.want {
			t.Errorf("%s moved by %d, want %d", c.name, c.got, c.want)
		}
	}
}
