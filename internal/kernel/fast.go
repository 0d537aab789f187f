package kernel

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/par"
)

// This file holds the opt-in fast sweep variants layered over the compiled
// structure. The default VariantJacobi path in compiled.go is the bitwise
// determinism contract and is untouched by everything here; the variants
// trade sweep-by-sweep reproducibility for throughput while keeping every
// certified gain bracket sound:
//
//   - VariantSpec runs the same damped Jacobi iteration through a
//     branch-free row kernel (stateAct/actStart layout, β-weighted rewards
//     folded into a per-transition table), removing the per-transition flag
//     decode and reward lookup from the hot loop.
//   - VariantGS / VariantSOR interleave those certification sweeps with
//     bursts of in-place (Gauss-Seidel) relaxation, tiled so one tile's
//     transition stream stays L2-resident across the burst. In-place
//     updates converge far faster but their span is not a valid gain
//     bracket, so brackets are taken only from the Jacobi certification
//     sweeps — which bound the optimal gain for ANY value vector, no
//     matter what the bursts did to it in between.
//   - VariantExplore32 is an analysis-level mode (see explore32.go): a
//     float32 exploration pass warm-starts an exact float64 solve; when it
//     reaches MeanPayoffCtx directly it behaves as VariantGS.
//
// Certified outcomes (final brackets, sign decisions) therefore agree with
// the default kernel up to the solver's documented tolerance semantics;
// only the trajectory and sweep counts differ.

// Variant selects a sweep kernel for the compiled solver. The zero value is
// the default, bitwise-deterministic Jacobi kernel.
type Variant uint8

const (
	// VariantJacobi is the default damped Jacobi kernel of MeanPayoffCtx —
	// bitwise identical across worker counts and releases.
	VariantJacobi Variant = iota
	// VariantSpec is the branch-free specialization of the same iteration.
	VariantSpec
	// VariantGS interleaves tiled in-place Gauss-Seidel bursts with Jacobi
	// certification sweeps.
	VariantGS
	// VariantSOR is VariantGS with over-relaxation (see Options.Omega).
	VariantSOR
	// VariantExplore32 runs a float32 exploration solve before an exact
	// float64 certification (analysis-level; see ExploreMeanPayoff32).
	VariantExplore32
)

// String returns the canonical variant name accepted by ParseVariant.
func (v Variant) String() string {
	switch v {
	case VariantJacobi:
		return "jacobi"
	case VariantSpec:
		return "spec"
	case VariantGS:
		return "gs"
	case VariantSOR:
		return "sor"
	case VariantExplore32:
		return "explore32"
	}
	return fmt.Sprintf("kernel.Variant(%d)", uint8(v))
}

// VariantNames lists the canonical kernel variant names, default first.
func VariantNames() []string {
	return []string{"jacobi", "spec", "gs", "sor", "explore32"}
}

// ParseVariant resolves a user-facing kernel name. The empty string and
// "default" mean the Jacobi default; "gauss-seidel", "f32" and "float32" are
// accepted aliases.
func ParseVariant(name string) (Variant, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "jacobi", "default":
		return VariantJacobi, nil
	case "spec":
		return VariantSpec, nil
	case "gs", "gauss-seidel":
		return VariantGS, nil
	case "sor":
		return VariantSOR, nil
	case "explore32", "f32", "float32":
		return VariantExplore32, nil
	}
	return VariantJacobi, fmt.Errorf("kernel: unknown kernel variant %q (have %s)", name, strings.Join(VariantNames(), ", "))
}

const (
	// gsTileTransitions bounds one cache tile's transition stream. A
	// transition costs 16 bytes of stream (dst + meta + probs + wr), so
	// 16Ki transitions ≈ 256 KiB — comfortably L2-resident while a burst
	// re-iterates the tile.
	gsTileTransitions = 16 << 10
	// gsBurstSweeps is how many in-place relaxation passes a burst runs
	// over each tile between certification sweeps. Measured on the fork and
	// nakamoto families, 1 beats longer bursts: each relaxation pass needs
	// the freshest possible gain estimate (see gsRound), and that estimate
	// only improves when a certification sweep refines the bracket.
	gsBurstSweeps = 1
	// fastStallRounds is the degradation safeguard: if this many
	// consecutive certification sweeps fail to improve the best certified
	// width, the bursts are assumed to be hurting (oscillation) and the
	// solve degrades to the pure specialized Jacobi iteration.
	fastStallRounds = 64
	// defaultSOROmega is the default over-relaxation factor of VariantSOR.
	defaultSOROmega = 1.1
)

// ensureWeights (re)builds the per-transition β-weighted reward cache
// wr[k] = P(k) · r_β(k), so the hot loops fold the reward lookup and the
// probability multiply into one fused multiply-add stream. Invalidated by
// SetChainParams and by a β change.
func (c *Compiled) ensureWeights(beta float64) {
	if c.wrValid && c.wrBeta == beta && len(c.wr) == len(c.probs) {
		return
	}
	if len(c.wr) != len(c.probs) {
		c.wr = make([]float64, len(c.probs))
	}
	var rwd [rwdTableSize]float64
	rewardTable(&rwd, beta)
	for k, mv := range c.meta {
		c.wr[k] = float64(c.probs[k]) * rwd[(mv>>metaRwdShift)&metaRwdMask]
	}
	c.wrBeta, c.wrValid = beta, true
}

// specSweep runs one damped Jacobi sweep through the branch-free row layout,
// writing next from h only, and returns the exact span extrema of the sweep
// — a valid gain bracket for any input vector. Parallel chunking matches the
// default kernel (contiguous chunks, exact min/max reduction).
func (c *Compiled) specSweep(hv, nx []float64, tau float64, w int, red *par.MinMax) (lo, hi float64) {
	par.For(c.NumStates(), w, func(chunk, from, to int) {
		clo, chi := math.Inf(1), math.Inf(-1)
		for s := from; s < to; s++ {
			aEnd := c.stateAct[s+1]
			best := math.Inf(-1)
			for a := c.stateAct[s]; a < aEnd; a++ {
				kEnd := c.actStart[a+1]
				var q float64
				for k := c.actStart[a]; k < kEnd; k++ {
					q += c.wr[k] + float64(c.probs[k])*hv[c.dst[k]]
				}
				if q > best {
					best = q
				}
			}
			d := best - hv[s]
			if d < clo {
				clo = d
			}
			if d > chi {
				chi = d
			}
			nx[s] = hv[s] + tau*d
		}
		red.Set(chunk, clo, chi)
	})
	return red.Reduce()
}

// gsRound runs reps in-place relaxation passes over each cache tile before
// moving to the next tile (block Gauss-Seidel with inner iterations), so the
// tile's transition stream is read once from memory and re-iterated from
// cache. Alternate rounds reverse both tile and state order so information
// propagates in both directions of the state numbering. The vector is
// re-anchored at state 0 afterwards, like every Jacobi sweep.
//
// gEst is the caller's current gain estimate, and subtracting it per update
// is what makes in-place relaxation converge at all for MEAN-PAYOFF
// iteration: an undiscounted in-place update feeds values already advanced
// by one Bellman step — gain included — to later states of the same pass,
// so without the subtraction the vector accumulates a non-uniform tilt of
// order g per pass that end-of-pass normalization (which removes only
// uniform shifts) cannot undo, and the relaxation orbits instead of
// converging. With it, the fixed point is Th − h = gEst·1, i.e. the bias
// vector up to the (certified, shrinking) error in gEst.
func (c *Compiled) gsRound(h []float64, tau, omega, gEst float64, reps int, reverse bool) {
	step := tau * omega
	relax := func(s int) {
		aEnd := c.stateAct[s+1]
		best := math.Inf(-1)
		for a := c.stateAct[s]; a < aEnd; a++ {
			kEnd := c.actStart[a+1]
			var q float64
			for k := c.actStart[a]; k < kEnd; k++ {
				q += c.wr[k] + float64(c.probs[k])*h[c.dst[k]]
			}
			if q > best {
				best = q
			}
		}
		h[s] += step * (best - h[s] - gEst)
	}
	nt := len(c.tiles) - 1
	for t := 0; t < nt; t++ {
		ti := t
		if reverse {
			ti = nt - 1 - t
		}
		from, to := int(c.tiles[ti]), int(c.tiles[ti+1])
		for r := 0; r < reps; r++ {
			if reverse {
				for s := to - 1; s >= from; s-- {
					relax(s)
				}
			} else {
				for s := from; s < to; s++ {
					relax(s)
				}
			}
		}
	}
	ref := h[0]
	for i := range h {
		h[i] -= ref
	}
}

// meanPayoffFast is the non-default-variant body of MeanPayoffCtx: damped
// Jacobi certification sweeps through the specialized kernel, optionally
// interleaved with tiled in-place relaxation bursts. Convergence policy
// (Tol, SignOnly semantics, stall handling, MaxIter accounting across every
// sweep run) matches the default kernel, so callers observe identical
// Result semantics.
func (c *Compiled) meanPayoffFast(ctx context.Context, beta float64, opts Options) (*Result, error) {
	n := c.NumStates()
	c.ensureWeights(beta)
	if !opts.KeepValues {
		for i := range c.h {
			c.h[i] = 0
		}
	}
	tau := opts.Damping
	burst := gsBurstSweeps
	omega := 1.0
	switch opts.Variant {
	case VariantSpec:
		burst = 0
	case VariantSOR:
		if opts.Omega > 0 && opts.Omega < 2 {
			omega = opts.Omega
		} else {
			omega = defaultSOROmega
		}
	}
	res := &Result{Lo: math.Inf(-1), Hi: math.Inf(1)}
	h, next := c.h, c.next
	w := c.sweepWorkers()
	red := par.NewMinMax(par.NumChunks(n, w))
	lastWidth, stall := math.Inf(1), 0
	bestWidth, stale := math.Inf(1), 0
	reverse := false
	for res.Iters < opts.MaxIter {
		if err := ctx.Err(); err != nil {
			c.h, c.next = h, next
			res.Gain = (res.Lo + res.Hi) / 2
			return res, fmt.Errorf("kernel: compiled solve canceled after %d sweeps: %w", res.Iters, err)
		}
		lo, hi := c.specSweep(h, next, tau, w, red)
		par.Shift(next, next[0], w)
		h, next = next, h
		res.Iters++
		if lo > res.Lo {
			res.Lo = lo
		}
		if hi < res.Hi {
			res.Hi = hi
		}
		width := res.Hi - res.Lo
		if opts.SignOnly {
			if width < opts.Tol {
				if width < lastWidth {
					stall = 0
				} else {
					stall++
				}
			}
			res.Converged = res.SignKnown() ||
				width < opts.Tol*signOnlyFloorFrac ||
				stall >= signOnlyStallSweeps
		} else {
			res.Converged = width < opts.Tol
		}
		lastWidth = width
		if res.Converged {
			break
		}
		if width < bestWidth {
			bestWidth, stale = width, 0
		} else {
			stale++
			if stale >= fastStallRounds {
				burst = 0
			}
		}
		if burst > 0 && res.Iters+burst <= opts.MaxIter {
			c.gsRound(h, tau, omega, (res.Lo+res.Hi)/2, burst, reverse)
			reverse = !reverse
			res.Iters += burst
		}
	}
	c.h, c.next = h, next
	res.Gain = (res.Lo + res.Hi) / 2
	if !res.Converged {
		return res, fmt.Errorf("kernel: compiled solve: bracket [%v, %v] after %d sweeps without convergence", res.Lo, res.Hi, res.Iters)
	}
	return res, nil
}
