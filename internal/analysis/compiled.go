package analysis

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
)

// Analyze runs Algorithm 1 against a compiled model of any registered
// attack-model family: the procedure is protocol-agnostic — a binary
// search on β over a kernel whose transition probabilities are parametric
// in the chain parameters. The kernel resolves probabilities once per
// (p, γ) and keeps value vectors warm across the binary search, from the
// small shapes up to the large configurations (d=3 and d=4) of the
// paper's evaluation.
//
// Chain parameters (p, γ) are those currently set on c (SetChainParams).
// A positive Options.Workers is installed on c (SetWorkers) so that every
// inner solve, the policy extraction, and the strategy evaluation share the
// same sweep parallelism.
//
// Options.InitialValues seeds the first solve (via c.SetValues): sign-only
// solves certify the true gain sign from any start, so the binary-search
// trajectory and the returned ERRev bracket are bitwise identical with or
// without the seed; only the sweep count changes. Options.SkipStrategy
// returns right after the search with the bound alone — the mode sweeps
// use, where the whole result is warm-start independent.
//
// ctx reaches every inner solve (checked at value-iteration sweep
// boundaries, never inside one) and is additionally checked between
// binary-search steps, giving Algorithm 1's nested structure deterministic
// cancellation checkpoints at every level. On cancellation the partial
// Result — bracket, steps, sweeps so far — returns with an error wrapping
// ctx.Err(). A run that completes is bitwise identical to one with no
// context attached; Options.Progress observes each step's bracket.
func Analyze(ctx context.Context, c *kernel.Compiled, opts Options) (*Result, error) {
	opts.defaults()
	if opts.Workers > 0 {
		c.SetWorkers(opts.Workers)
	}

	// Gain resolution needed so that a sign decision at distance ε from
	// β* is reliable: |dMP*_β/dβ| equals the long-run rate of permanent
	// blocks per step, which is at least BlockRate()/2 (each block event
	// takes a mining step plus a decision step). A quarter of that per ε
	// leaves a 2x safety margin.
	zeta := opts.Epsilon * c.BlockRate() / 4
	if zeta <= 0 {
		zeta = opts.Epsilon * 1e-3
	}

	res := &Result{BetaLow: 0, BetaUp: 1, StrategyERRev: math.NaN()}
	warm := false
	if opts.InitialValues != nil {
		if err := c.SetValues(opts.InitialValues); err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		warm = true
	}
	if ck := opts.Resume; ck != nil {
		if err := ck.validate(); err != nil {
			return nil, err
		}
		res.BetaLow, res.BetaUp = ck.BetaLow, ck.BetaUp
		res.Iterations, res.Sweeps = ck.Iterations, ck.Sweeps
		// SetValues copies into the kernel's buffer, so the caller's
		// checkpoint stays reusable. A nil Values resumes cold (overriding
		// any InitialValues, matching the documented precedence).
		if ck.Values != nil {
			if err := c.SetValues(ck.Values); err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			warm = true
		} else {
			warm = false
		}
	}
	// A run counts, and its timer starts, only once its inputs are
	// accepted: a rejected warm start or checkpoint is no analysis.
	analysisRuns.With(backendCompiled).Inc()
	sp := obs.StartSpan(analysisSeconds.With(backendCompiled))
	defer sp.End()
	start := time.Now()
	for res.BetaUp-res.BetaLow >= opts.Epsilon {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("analysis: canceled after %d binary-search steps: %w", res.Iterations, err)
		}
		beta := (res.BetaLow + res.BetaUp) / 2
		sr, err := c.MeanPayoffCtx(ctx, beta, kernel.Options{
			Tol:        zeta,
			SignOnly:   true,
			KeepValues: warm,
		})
		if sr != nil {
			res.Sweeps += sr.Iters
		}
		if err != nil {
			return res, fmt.Errorf("analysis: compiled solve at beta=%v: %w", beta, err)
		}
		warm = true
		res.Iterations++
		analysisSteps.With(backendCompiled).Inc()
		if sr.Hi < 0 {
			res.BetaUp = beta
		} else {
			// Either the sign is certified positive, or the solve bottomed
			// out at the numerically-zero width floor without a certified
			// sign — which can only happen with MP*_β vanishingly close to
			// zero, i.e. beta within ~ε·10⁻⁶ of β*. Treating that case as
			// beta <= β* is a fixed rule: unlike the bracket midpoint's
			// sign (noise at the 1e-17 scale), it cannot differ between
			// solver trajectories, so the search decisions — and the final
			// ERRev — are bitwise identical under any warm start.
			res.BetaLow = beta
		}
		if opts.Progress != nil {
			opts.Progress(res.BetaLow, res.BetaUp, res.Iterations)
		}
		if opts.OnCheckpoint != nil {
			// c.Values() copies the kernel's converged vector — exactly what
			// the next solve (here or in a resumed run) warm-starts from.
			opts.OnCheckpoint(Checkpoint{
				BetaLow: res.BetaLow, BetaUp: res.BetaUp,
				Iterations: res.Iterations, Sweeps: res.Sweeps,
				Values: c.Values(),
			})
		}
	}
	res.ERRev = res.BetaLow
	if opts.SkipStrategy {
		res.Duration = time.Since(start)
		return res, nil
	}

	sr, err := c.MeanPayoffCtx(ctx, res.BetaLow, kernel.Options{
		Tol:        zeta,
		KeepValues: warm,
	})
	if sr != nil {
		res.Sweeps += sr.Iters
	}
	if err != nil {
		return res, fmt.Errorf("analysis: compiled final solve at beta=%v: %w", res.BetaLow, err)
	}
	res.Strategy = c.GreedyPolicy(res.BetaLow)

	if !opts.SkipStrategyEval {
		errev, err := c.EvalERRevCtx(ctx, res.Strategy, kernel.Options{Tol: zeta})
		if err != nil {
			return res, fmt.Errorf("analysis: evaluating final strategy: %w", err)
		}
		res.StrategyERRev = errev
	}
	res.Duration = time.Since(start)
	return res, nil
}
