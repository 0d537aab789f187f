// Package analysis implements the paper's formal analysis procedure
// (Algorithm 1): a binary search over β ∈ [0, 1] that locates the zero of
// the optimal mean payoff MP*_β under the reward family
// r_β = r_A − β(r_A + r_H), yielding an ε-tight lower bound on the optimal
// expected relative revenue ERRev* together with a strategy achieving it
// (Theorem 3.1 and Corollaries 3.2–3.3).
//
// Each binary-search step only needs the sign of MP*_β, so the inner
// mean-payoff solves run in sign-only mode with a gain tolerance
// calibrated from the chain's block production rate, and warm-start from
// the previous step's value vector.
package analysis

import (
	"fmt"
	"math"
	"time"
)

// Options tunes the analysis procedure.
type Options struct {
	// Epsilon is the precision of the binary search on β; the returned
	// ERRev lies in [ERRev* − ε, ERRev*]. Default 1e-4.
	Epsilon float64
	// SkipStrategyEval skips the independent evaluation of the final
	// strategy's revenue; useful for large models where only the bound is
	// needed.
	SkipStrategyEval bool
	// SkipStrategy skips the final full-precision solve and strategy
	// extraction entirely, returning only the certified ERRev bracket
	// (Result.Strategy is nil, Result.StrategyERRev is NaN, and
	// SkipStrategyEval is implied). This is the bound-only mode used by
	// sweeps, where every retained output is a pure function of the
	// binary-search sign decisions and therefore bitwise independent of
	// warm starts.
	SkipStrategy bool
	// InitialValues warm-starts the first inner solve from this value
	// vector (length NumStates; typically the converged values of a nearby
	// (p, γ, β) point, via kernel.Compiled.Values). Sign-only solves certify
	// the true gain sign from any starting vector, so the binary-search
	// trajectory — and with it ERRev, BetaLow, BetaUp and Iterations — is
	// bitwise identical with or without a warm start; only Sweeps (and, in
	// full mode, low-order noise in the extracted strategy) can change.
	InitialValues []float64
	// Workers is the per-sweep parallelism of the inner value-iteration
	// solves (see kernel.Compiled.SetWorkers): a positive value is honored
	// exactly, 0 uses all cores with a small-model cutoff. Results are
	// bitwise identical at every worker count.
	Workers int
	// Progress, if non-nil, is called after every binary-search step with
	// the current certified bracket [betaLow, betaUp] and the number of
	// steps completed. It runs on the solving goroutine between inner
	// solves and must return promptly; it observes progress only and
	// cannot change any result.
	Progress func(betaLow, betaUp float64, iteration int)
	// OnCheckpoint, if non-nil, is called after every completed
	// binary-search step with a resumable snapshot of the search: the
	// certified bracket, the step and sweep counters, and a private copy of
	// the converged value vector the next step would warm-start from.
	// Feeding the latest snapshot back through Options.Resume replays the
	// remainder of the search exactly (see Checkpoint). The callback runs
	// on the solving goroutine and owns its Checkpoint; the O(states)
	// vector copy per step is the cost of resumability, so leave
	// OnCheckpoint nil when snapshots are not needed.
	OnCheckpoint func(Checkpoint)
	// Resume, if non-nil, restarts Algorithm 1 from a checkpoint instead of
	// the trivial bracket [0, 1]: the search continues from the
	// checkpoint's bracket with its step and sweep counters, seeded with
	// its value vector. A resumed run is bitwise identical to the
	// uninterrupted run the checkpoint came from — every subsequent inner
	// solve starts from exactly the vector it would have had — provided the
	// checkpoint is used as emitted, against the same model, chain
	// parameters and options. Resume takes precedence over InitialValues.
	Resume *Checkpoint
}

// Checkpoint is a resumable snapshot of Algorithm 1 at a binary-search
// step boundary, as emitted by Options.OnCheckpoint and consumed by
// Options.Resume.
//
// Resuming from a checkpoint is bitwise identical to never having stopped:
// the binary search's decisions are exact sign certifications (independent
// of the starting vector), and Values is the converged vector of the last
// completed step — exactly what the uninterrupted run would warm-start the
// next solve from — so the resumed trajectory, including the final
// full-precision solve and the extracted strategy, reproduces the
// uninterrupted computation float for float. A checkpoint resumed without
// its Values (nil) still yields the identical ERRev, bracket and step
// count — the sign decisions do not depend on the seed — but the sweep
// counts and the low-order bits of a full mode's extracted strategy may
// then differ from the uninterrupted run.
type Checkpoint struct {
	// BetaLow and BetaUp are the certified bracket at the snapshot.
	BetaLow, BetaUp float64
	// Iterations and Sweeps are the search counters at the snapshot, so a
	// resumed run's final counters match the uninterrupted run's.
	Iterations, Sweeps int
	// Values is a copy of the converged value vector of the last completed
	// inner solve (length NumStates).
	Values []float64
}

// validate rejects checkpoints no run could have emitted. A non-finite
// value would poison every later sweep's bracket (a NaN bound reads as a
// certified sign), so each entry must be finite; the vector's length is
// checked downstream (SetValues) against the model's state count.
func (ck *Checkpoint) validate() error {
	if math.IsNaN(ck.BetaLow) || math.IsNaN(ck.BetaUp) ||
		ck.BetaLow < 0 || ck.BetaUp > 1 || ck.BetaLow > ck.BetaUp {
		return fmt.Errorf("analysis: resume checkpoint has malformed bracket [%v, %v]", ck.BetaLow, ck.BetaUp)
	}
	if ck.Iterations < 0 || ck.Sweeps < 0 {
		return fmt.Errorf("analysis: resume checkpoint has negative counters (%d iterations, %d sweeps)", ck.Iterations, ck.Sweeps)
	}
	for i, v := range ck.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("analysis: resume checkpoint value %d is %v, want a finite number", i, v)
		}
	}
	return nil
}

func (o *Options) defaults() {
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-4
	}
}

// Result is the output of Algorithm 1.
type Result struct {
	// ERRev is the certified lower bound β_low on the optimal expected
	// relative revenue: ERRev ∈ [ERRev* − ε, ERRev*].
	ERRev float64
	// Strategy is a positional strategy achieving ERRev (Corollary 3.2).
	Strategy []int
	// StrategyERRev is the expected relative revenue of Strategy, computed
	// independently by fixed-policy evaluation (NaN if skipped).
	StrategyERRev float64
	// BetaLow and BetaUp are the final binary-search bracket.
	BetaLow, BetaUp float64
	// Iterations is the number of binary-search steps.
	Iterations int
	// Sweeps is the total number of value-iteration sweeps across all solves.
	Sweeps int
	// Duration is the wall-clock analysis time.
	Duration time.Duration
}
