package analysis

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/kernel"
)

// BatchLane describes one lane of a batched analysis: a (p, γ) parameter
// point plus an optional warm-start vector for its first inner solve
// (same semantics as Options.InitialValues — sweep counts may change,
// results cannot).
type BatchLane struct {
	P, Gamma      float64
	InitialValues []float64
}

// LaneResult is one lane's Algorithm 1 outcome plus the lane's final
// converged value vector (the batched counterpart of reading
// Compiled.Values after Analyze), for warm-starting
// neighboring points.
type LaneResult struct {
	Result
	Values []float64
}

// AnalyzeBatch runs Algorithm 1 for K lanes over ONE shared compiled
// structure in a single batched value-iteration loop (kernel.Batch.RunCtx):
// per sweep, the structure's column indices and law metadata are streamed
// once and applied to every lane, so the irregular structure traffic that
// dominates a sweep is amortized K ways.
//
// Lanes advance asynchronously, each through its own binary search: the
// moment a lane's sign-only solve converges, the lane's bracket is halved
// and its next β midpoint is installed in place, warm-started from the
// converged vector — the lane never idles in the batch waiting for slower
// lanes' solves. That keeps the batch at full width for almost the entire
// run (only the final tail thins out as lanes finish their whole
// searches), which is what lets the dense specialized sweep carry the
// work.
//
// Per lane, the procedure is bitwise identical to a solo Analyze at that
// lane's (p, γ): the same per-lane ζ calibration from the family block
// rate, the same β midpoints, the same exact-sign decisions (warm-start
// independent), the same ERRev/BetaLow/BetaUp/Iterations, and — because
// each batched inner solve is bitwise equal to the solo solve — the same
// per-lane Sweeps.
//
// The batch path is bound-only: opts.SkipStrategy must be set (strategy
// extraction is a single-point concern, kept on the solo kernel), and the
// Resume/OnCheckpoint hooks must be nil — the sweep scheduler keeps its
// per-point checkpoint semantics one level up, where completed lanes are
// recorded as completed points. Options.Progress is ignored: lanes hold K
// independent brackets, which do not fit the single-bracket callback.
//
// ctx is checked between steps and at every inner sweep boundary; on
// cancellation the partial per-lane results (bracket, steps, sweeps so
// far) return with an error wrapping ctx.Err().
func AnalyzeBatch(ctx context.Context, c *kernel.Compiled, lanes []BatchLane, opts Options) ([]*LaneResult, error) {
	opts.defaults()
	// Each lane is one Algorithm 1 analysis: one run, timed at the batch's
	// wall clock (the Duration every lane reports).
	analysisRuns.With(backendBatch).Add(uint64(len(lanes)))
	start := time.Now()
	defer func() {
		seconds := analysisSeconds.With(backendBatch)
		dur := time.Since(start).Seconds()
		for range lanes {
			seconds.Observe(dur)
		}
	}()
	if len(lanes) == 0 {
		return nil, fmt.Errorf("analysis: batched analysis needs at least one lane")
	}
	if !opts.SkipStrategy {
		return nil, fmt.Errorf("analysis: batched analysis is bound-only; set Options.SkipStrategy")
	}
	if opts.Resume != nil || opts.OnCheckpoint != nil {
		return nil, fmt.Errorf("analysis: batched analysis does not support Resume/OnCheckpoint; checkpoint per point above the batch")
	}

	lps := make([]kernel.LaneParams, len(lanes))
	for i, l := range lanes {
		lps[i] = kernel.LaneParams{P: l.P, Gamma: l.Gamma}
	}
	b, err := kernel.NewBatch(c, lps)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	if opts.Workers > 0 {
		b.SetWorkers(opts.Workers)
	}

	// Per-lane gain resolution, calibrated from the family block rate at
	// each lane's own (p, γ) — exactly the solo ζ.
	zetas := make([]float64, len(lanes))
	for i, l := range lanes {
		zetas[i] = opts.Epsilon * c.BlockRateAt(l.P, l.Gamma) / 4
		if zetas[i] <= 0 {
			zetas[i] = opts.Epsilon * 1e-3
		}
	}
	for i, l := range lanes {
		if l.InitialValues == nil {
			continue
		}
		if err := b.SetValues(i, l.InitialValues); err != nil {
			return nil, fmt.Errorf("analysis: lane %d: %w", i, err)
		}
	}

	results := make([]*LaneResult, len(lanes))
	for i := range results {
		results[i] = &LaneResult{Result: Result{BetaLow: 0, BetaUp: 1, StrategyERRev: math.NaN()}}
	}
	// Each lane's binary search lives in the run callback: fold the finished
	// solve into the lane's bracket, then either issue the next midpoint or
	// report the lane done. The per-lane sequence of (β, ζ, warm start)
	// triples is exactly the solo Algorithm 1's, so Iterations, Sweeps and
	// the final bracket stay bitwise equal to the solo analysis.
	betas := make([]float64, len(lanes))
	srs, err := b.RunCtx(ctx, kernel.BatchRunOptions{
		MaxIter:    opts.SolverMaxIter,
		SignOnly:   true,
		KeepValues: true, // unseeded lanes start from zero = solo cold
	}, func(ln int, prev *kernel.Result) (kernel.LaneSolve, bool) {
		r := results[ln]
		if prev != nil {
			r.Sweeps += prev.Iters
			r.Iterations++
			analysisSteps.With(backendBatch).Inc()
			if prev.Hi < 0 {
				r.BetaUp = betas[ln]
			} else {
				// Certified positive or numerically-zero floor-out: both map
				// to beta <= β* by fixed rule (see Analyze).
				r.BetaLow = betas[ln]
			}
		}
		if r.BetaUp-r.BetaLow < opts.Epsilon {
			return kernel.LaneSolve{}, false
		}
		betas[ln] = (r.BetaLow + r.BetaUp) / 2
		return kernel.LaneSolve{Beta: betas[ln], Tol: zetas[ln]}, true
	})
	if err != nil {
		// In-flight (unconverged) solves never reached the callback: fold
		// their partial sweeps in so the totals reflect work actually done.
		for i, sr := range srs {
			if !sr.Converged {
				results[i].Sweeps += sr.Iters
			}
		}
		return results, fmt.Errorf("analysis: batched solve: %w", err)
	}
	dur := time.Since(start)
	for i, r := range results {
		r.ERRev = r.BetaLow
		r.Duration = dur
		r.Values = b.Values(i)
	}
	return results, nil
}
