package kernel

import (
	"context"
	"math"
	"strings"
	"testing"
)

// laneFixture builds K lanes with spread-out parameters so convergence
// speeds differ across lanes (mixed retirement orders).
func laneFixture(k int) ([]LaneParams, []float64, []float64) {
	lanes := make([]LaneParams, k)
	betas := make([]float64, k)
	tols := make([]float64, k)
	for i := range lanes {
		lanes[i] = LaneParams{
			P:     0.05 + 0.9*float64(i)/float64(k),
			Gamma: float64(i%3) / 2,
		}
		betas[i] = 0.1 + 0.8*float64(k-1-i)/float64(k)
		tols[i] = []float64{1e-6, 1e-8, 1e-7}[i%3]
	}
	return lanes, betas, tols
}

// soloSolve runs the reference solo Jacobi solve for one lane on a fresh
// clone of the shared structure.
func soloSolve(t *testing.T, c *Compiled, lp LaneParams, beta float64, opts Options, warm []float64) (*Result, []float64) {
	t.Helper()
	sc := c.Clone()
	if err := sc.SetChainParams(lp.P, lp.Gamma); err != nil {
		t.Fatalf("SetChainParams: %v", err)
	}
	if warm != nil {
		if err := sc.SetValues(warm); err != nil {
			t.Fatalf("SetValues: %v", err)
		}
		opts.KeepValues = true
	}
	res, err := sc.MeanPayoffCtx(context.Background(), beta, opts)
	if err != nil {
		t.Fatalf("solo MeanPayoffCtx(p=%v, beta=%v): %v", lp.P, beta, err)
	}
	return res, sc.Values()
}

func sameResult(t *testing.T, tag string, ln int, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.Gain) != math.Float64bits(want.Gain) ||
		math.Float64bits(got.Lo) != math.Float64bits(want.Lo) ||
		math.Float64bits(got.Hi) != math.Float64bits(want.Hi) {
		t.Errorf("%s lane %d: bracket (%v [%v, %v]) != solo (%v [%v, %v])",
			tag, ln, got.Gain, got.Lo, got.Hi, want.Gain, want.Lo, want.Hi)
	}
	if got.Iters != want.Iters {
		t.Errorf("%s lane %d: Iters = %d, solo = %d", tag, ln, got.Iters, want.Iters)
	}
	if got.Converged != want.Converged {
		t.Errorf("%s lane %d: Converged = %v, solo = %v", tag, ln, got.Converged, want.Converged)
	}
}

func sameValues(t *testing.T, tag string, ln int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s lane %d: %d values, solo has %d", tag, ln, len(got), len(want))
	}
	for s := range got {
		if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
			t.Errorf("%s lane %d: values diverge at state %d: %v != %v", tag, ln, s, got[s], want[s])
			return
		}
	}
}

// TestBatchMatchesSoloBitwise is the kernel-level pin of the batching
// contract: for lane counts {1, 2, 7, 8, 16}, mixed (p, γ, β, Tol) per lane
// (so lanes retire in scrambled orders), in both full and sign-only
// modes, every lane of one batched solve must be bitwise identical to a
// solo Jacobi solve — Result fields and the converged value vector alike.
func TestBatchMatchesSoloBitwise(t *testing.T) {
	c := compileRing(t, 300, 0.3)
	for _, k := range []int{1, 2, 7, 8, 16} {
		lanes, betas, tols := laneFixture(k)
		for _, signOnly := range []bool{false, true} {
			b, err := NewBatch(c, lanes)
			if err != nil {
				t.Fatalf("NewBatch(k=%d): %v", k, err)
			}
			got, err := BatchMeanPayoff(context.Background(), b, betas, BatchOptions{
				Tol: tols, SignOnly: signOnly,
			})
			if err != nil {
				t.Fatalf("BatchMeanPayoff(k=%d, signOnly=%v): %v", k, signOnly, err)
			}
			tag := "full"
			if signOnly {
				tag = "sign-only"
			}
			for ln := 0; ln < k; ln++ {
				want, wantVals := soloSolve(t, c, lanes[ln], betas[ln],
					Options{Tol: tols[ln], SignOnly: signOnly}, nil)
				sameResult(t, tag, ln, &got[ln], want)
				sameValues(t, tag, ln, b.Values(ln), wantVals)
			}
		}
	}
}

// TestBatchWarmStartMatchesSolo: a warm-started batched lane (SetValues,
// KeepValues) replays the warm solo solve bit for bit, including the
// reduced sweep count.
func TestBatchWarmStartMatchesSolo(t *testing.T) {
	c := compileRing(t, 300, 0.3)
	const k = 5
	lanes, betas, tols := laneFixture(k)
	// Converged vectors at slightly shifted p serve as warm starts for
	// odd lanes; even lanes stay cold inside the same batch.
	warms := make([][]float64, k)
	for ln := 0; ln < k; ln++ {
		if ln%2 == 0 {
			continue
		}
		near := lanes[ln]
		near.P = math.Min(1, near.P+0.01)
		_, warms[ln] = soloSolve(t, c, near, betas[ln], Options{Tol: tols[ln]}, nil)
	}
	b, err := NewBatch(c, lanes)
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	for ln, warm := range warms {
		if warm == nil {
			continue
		}
		if err := b.SetValues(ln, warm); err != nil {
			t.Fatalf("SetValues(%d): %v", ln, err)
		}
	}
	got, err := BatchMeanPayoff(context.Background(), b, betas, BatchOptions{
		Tol: tols, SignOnly: true, KeepValues: true,
	})
	if err != nil {
		t.Fatalf("BatchMeanPayoff: %v", err)
	}
	for ln := 0; ln < k; ln++ {
		want, wantVals := soloSolve(t, c, lanes[ln], betas[ln],
			Options{Tol: tols[ln], SignOnly: true}, warms[ln])
		sameResult(t, "warm", ln, &got[ln], want)
		sameValues(t, "warm", ln, b.Values(ln), wantVals)
	}
}

// TestBatchChainedSolvesMatchSolo replays Algorithm 1's shape — repeated
// KeepValues solves at moving β over one Batch — against per-lane solo
// chains. Retired-lane buffer reuse across solves must not leak between
// steps.
func TestBatchChainedSolvesMatchSolo(t *testing.T) {
	c := compileRing(t, 200, 0.3)
	const k = 4
	lanes, betas, tols := laneFixture(k)
	b, err := NewBatch(c, lanes)
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	solos := make([]*Compiled, k)
	for ln := range solos {
		solos[ln] = c.Clone()
		if err := solos[ln].SetChainParams(lanes[ln].P, lanes[ln].Gamma); err != nil {
			t.Fatalf("SetChainParams: %v", err)
		}
	}
	step := append([]float64(nil), betas...)
	for iter := 0; iter < 4; iter++ {
		got, err := BatchMeanPayoff(context.Background(), b, step, BatchOptions{
			Tol: tols, SignOnly: true, KeepValues: true,
		})
		if err != nil {
			t.Fatalf("step %d: BatchMeanPayoff: %v", iter, err)
		}
		for ln := 0; ln < k; ln++ {
			want, err := solos[ln].MeanPayoffCtx(context.Background(), step[ln], Options{
				Tol: tols[ln], SignOnly: true, KeepValues: true,
			})
			if err != nil {
				t.Fatalf("step %d lane %d solo: %v", iter, ln, err)
			}
			sameResult(t, "chained", ln, &got[ln], want)
			sameValues(t, "chained", ln, b.Values(ln), solos[ln].Values())
			// Halve β toward the decision boundary like a binary search.
			if got[ln].Hi < 0 {
				step[ln] /= 2
			} else {
				step[ln] = (step[ln] + 1) / 2
			}
		}
	}
}

// TestBatchWorkerCountInvariance: the batched sweep partitions states into
// chunks exactly like the solo kernel, so results are bitwise identical at
// any worker count.
func TestBatchWorkerCountInvariance(t *testing.T) {
	c := compileRing(t, 301, 0.35) // odd count: uneven chunk boundaries
	const k = 3
	lanes, betas, tols := laneFixture(k)
	var ref []Result
	var refVals [][]float64
	for _, workers := range []int{1, 2, 4, 7} {
		b, err := NewBatch(c, lanes)
		if err != nil {
			t.Fatalf("NewBatch: %v", err)
		}
		b.SetWorkers(workers)
		got, err := BatchMeanPayoff(context.Background(), b, betas, BatchOptions{Tol: tols})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		vals := make([][]float64, k)
		for ln := range vals {
			vals[ln] = b.Values(ln)
		}
		if ref == nil {
			ref, refVals = got, vals
			continue
		}
		for ln := 0; ln < k; ln++ {
			sameResult(t, "workers", ln, &got[ln], &ref[ln])
			sameValues(t, "workers", ln, vals[ln], refVals[ln])
		}
	}
}

func TestBatchValidation(t *testing.T) {
	c := compileRing(t, 50, 0.3)
	if _, err := NewBatch(c, nil); err == nil {
		t.Error("NewBatch accepted zero lanes")
	}
	if _, err := NewBatch(c, []LaneParams{{P: 1.5}}); err == nil {
		t.Error("NewBatch accepted p outside [0, 1]")
	}
	if _, err := NewBatch(c, []LaneParams{{P: 0.3, Gamma: math.NaN()}}); err == nil {
		t.Error("NewBatch accepted NaN gamma")
	}
	b, err := NewBatch(c, []LaneParams{{P: 0.3, Gamma: 0.5}, {P: 0.2, Gamma: 0.5}})
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	if _, err := b.MeanPayoffCtx(context.Background(), []float64{0.5}, BatchOptions{}); err == nil {
		t.Error("batched solve accepted a betas slice shorter than the lane count")
	}
	if _, err := b.MeanPayoffCtx(context.Background(), []float64{0.5, 0.5}, BatchOptions{Tol: []float64{1e-7}}); err == nil {
		t.Error("batched solve accepted a Tol slice shorter than the lane count")
	}
	if err := b.SetValues(0, make([]float64, 7)); err == nil {
		t.Error("SetValues accepted a wrong-length vector")
	}
	if b.Values(0) != nil {
		t.Error("Values returned a vector for a lane that has none")
	}
}

// TestBatchCancel: a canceled batched solve returns partial per-lane
// results plus an error wrapping ctx.Err, and keeps each lane's vector
// for a KeepValues resume — mirroring the solo contract.
func TestBatchCancel(t *testing.T) {
	c := compileRing(t, 100, 0.3)
	lanes, betas, tols := laneFixture(3)
	b, err := NewBatch(c, lanes)
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := BatchMeanPayoff(ctx, b, betas, BatchOptions{Tol: tols})
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("pre-canceled solve: err = %v, want cancellation", err)
	}
	if len(res) != len(lanes) {
		t.Fatalf("partial results cover %d lanes, want %d", len(res), len(lanes))
	}
	for ln := range res {
		if res[ln].Converged || res[ln].Iters != 0 {
			t.Errorf("lane %d: partial result %+v after zero sweeps", ln, res[ln])
		}
	}
}

// TestBatchSteadyStateAllocs is the allocation regression guard on the
// batched sweep loop: a warm re-solve over an existing Batch must stay
// allocation-free apart from the results slice and the loop's two
// closures — per-sweep allocations (the historical failure mode: a
// closure or scratch slice born inside the sweep loop) would show up
// hundreds of times over this budget.
func TestBatchSteadyStateAllocs(t *testing.T) {
	c := compileRing(t, 200, 0.3)
	lanes, betas, tols := laneFixture(4)
	b, err := NewBatch(c, lanes)
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	b.SetWorkers(1) // single-chunk par.For runs inline: no goroutine allocs
	opts := BatchOptions{Tol: tols, SignOnly: true, KeepValues: true}
	if _, err := b.MeanPayoffCtx(context.Background(), betas, opts); err != nil {
		t.Fatalf("priming solve: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := b.MeanPayoffCtx(context.Background(), betas, opts); err != nil {
			t.Fatalf("steady-state solve: %v", err)
		}
	})
	const maxAllocs = 16
	if allocs > maxAllocs {
		t.Errorf("steady-state batched solve: %.0f allocs/run, budget %d", allocs, maxAllocs)
	}
}

// TestBatchLastLiveLaneMatchesSolo: one lane of an 8-lane batch asks for a
// far tighter bracket than the other seven, so it runs alone for most of
// the solve — on the dense sweep, which keeps computing the retired
// slots. That lane, and every early finisher, must stay bitwise equal to
// its solo solve.
func TestBatchLastLiveLaneMatchesSolo(t *testing.T) {
	c := compileRing(t, 300, 0.3)
	lanes, betas, _ := laneFixture(denseLaneWidth)
	tols := make([]float64, denseLaneWidth)
	for ln := range tols {
		tols[ln] = 1e-4
	}
	const slow = 5
	tols[slow] = 1e-13
	b, err := NewBatch(c, lanes)
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	got, err := BatchMeanPayoff(context.Background(), b, betas, BatchOptions{Tol: tols})
	if err != nil {
		t.Fatalf("BatchMeanPayoff: %v", err)
	}
	others := 0
	for ln := range lanes {
		want, wantVals := soloSolve(t, c, lanes[ln], betas[ln], Options{Tol: tols[ln]}, nil)
		sameResult(t, "last-live", ln, &got[ln], want)
		sameValues(t, "last-live", ln, b.Values(ln), wantVals)
		if ln != slow {
			others = max(others, got[ln].Iters)
		}
	}
	if got[slow].Iters < 2*others {
		t.Fatalf("slow lane ran %d sweeps, the others up to %d: it never ran alone for long", got[slow].Iters, others)
	}
}
