package kernel

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/par"
)

// metaTrans packs per-transition metadata into a uint32:
//
//	bits 0..2   law index
//	bit  3      first transition of a new action
//	bits 4..11  sigma (law annotation)
//	bits 12..17 rh
//	bits 18..23 ra
//
// Bits 12..23 double as an index into a 4096-entry reward lookup table.
const (
	metaLawMask    = 0x7
	metaNewAction  = 1 << 3
	metaSigmaShift = 4
	metaRwdShift   = 12
	metaRwdMask    = 0xFFF
	metaRHShift    = 12
	metaRAShift    = 18
	rwdTableSize   = 1 << 12
)

// Compiled is a flattened, solver-friendly representation of an attack MDP
// transition structure for one fixed shape. The structure is shared by
// every (p, γ, β): probabilities are resolved by SetChainParams through the
// family's probability-law table and the scalar β-reward by a lookup table
// per sweep. It implements fast mean-payoff value iteration and
// fixed-policy evaluation for large models.
//
// A Compiled instance is not safe for concurrent use, but Clone produces
// independent instances that share the immutable transition structure, so
// many clones can solve in parallel over one compilation.
//
// Every solver sweep may be parallelized across SetWorkers goroutines.
// Results are bitwise identical at any worker count: a sweep writes
// next[s] from the previous vector h only, states are partitioned into
// contiguous chunks (par.For), and the lo/hi gain brackets are reduced
// with exact min/max — so chunked execution reproduces the serial sweep
// exactly. See the package par documentation for the full argument.
type Compiled struct {
	p, gamma float64 // values last passed to SetChainParams

	laws     []ProbLaw                      // family law table; shared by clones
	rate     func(p, gamma float64) float64 // family block-rate bound; shared
	maxSigma int                            // largest σ annotation observed at compile time

	transStart []int64   // per-state transition range, len n+1; shared by clones
	dst        []int32   // transition destinations; shared by clones
	meta       []uint32  // packed law/flag/sigma/ra/rh; shared by clones
	probs      []float32 // resolved probabilities for current (p, γ); per-instance

	// Action index, derived once at Compile time and shared by clones:
	// stateAct[s] is the index of state s's first action and actStart[a]
	// the index of action a's first transition, so fixed-policy evaluation
	// jumps straight to the chosen action's transitions.
	stateAct []int32
	actStart []int64

	h, next []float64 // value-iteration buffers; per-instance

	workers int // sweep parallelism; 0 = runtime.NumCPU()
}

// minStatesPerWorker keeps small models on the serial fast path: one
// compiled value-iteration sweep costs tens of nanoseconds per state, so a
// goroutine is only worth spawning for chunks of at least this many states.
const minStatesPerWorker = 1 << 11

// SetWorkers sets the number of goroutines used per value-iteration sweep
// by MeanPayoffCtx, GreedyPolicy and EvalERRevCtx on this instance. n > 0
// forces exactly n (capped at the state count); n <= 0 — the initial state
// — uses runtime.NumCPU(), reduced automatically when the model is too
// small for fan-out to pay off. The worker count never affects results, only
// wall-clock time.
func (c *Compiled) SetWorkers(n int) { c.workers = n }

// sweepWorkers resolves the effective per-sweep parallelism for this model
// size.
func (c *Compiled) sweepWorkers() int {
	if c.workers > 0 {
		return c.workers
	}
	return par.Grain(c.NumStates(), par.Workers(0), minStatesPerWorker)
}

// Clone returns an independent solver over the same compiled transition
// structure. The immutable arrays (transition ranges, destinations,
// metadata, law table) are shared with the receiver; the mutable per-solve
// state (resolved probabilities, value vectors, parameters, worker count)
// is copied. Distinct clones are safe for concurrent use, which is how the
// sweep orchestration in package selfishmining gives each worker its own
// solver while compiling every attack shape once.
func (c *Compiled) Clone() *Compiled {
	nc := &Compiled{
		p:          c.p,
		gamma:      c.gamma,
		laws:       c.laws,
		rate:       c.rate,
		maxSigma:   c.maxSigma,
		transStart: c.transStart,
		dst:        c.dst,
		meta:       c.meta,
		stateAct:   c.stateAct,
		actStart:   c.actStart,
		probs:      append([]float32(nil), c.probs...),
		h:          append([]float64(nil), c.h...),
		next:       make([]float64, len(c.next)),
		workers:    c.workers,
	}
	return nc
}

// Compile builds the flattened transition structure from a family source
// and resolves probabilities at the initial chain parameters (p, γ).
//
// The returned Compiled retains src's BlockRate method (and therefore the
// source value) for its lifetime; sources holding large exploration state
// should free everything that bound does not need once Compile returns
// (see families.Compile).
func Compile(src Source, p, gamma float64) (*Compiled, error) {
	sp := obs.StartSpan(compileSeconds)
	defer func() { sp.End(); compilesTotal.Inc() }()
	laws := src.Laws()
	if len(laws) == 0 || len(laws) > MaxLaws {
		return nil, fmt.Errorf("kernel: law table has %d entries, need 1..%d", len(laws), MaxLaws)
	}
	n := src.NumStates()
	if n <= 0 {
		return nil, fmt.Errorf("kernel: source has %d states", n)
	}
	c := &Compiled{
		laws:       laws,
		rate:       src.BlockRate,
		transStart: make([]int64, n+1),
	}
	// First pass: count transitions.
	var buf []Raw
	var total int64
	for s := 0; s < n; s++ {
		c.transStart[s] = total
		na := src.NumActions(s)
		if na <= 0 {
			return nil, fmt.Errorf("kernel: state %d has %d actions, need >= 1", s, na)
		}
		for a := 0; a < na; a++ {
			buf = src.RawTransitions(s, a, buf[:0])
			if len(buf) == 0 {
				return nil, fmt.Errorf("kernel: state %d action %d has no successors", s, a)
			}
			total += int64(len(buf))
		}
	}
	c.transStart[n] = total
	c.dst = make([]int32, total)
	c.meta = make([]uint32, total)
	c.probs = make([]float32, total)
	// Second pass: fill.
	var k int64
	for s := 0; s < n; s++ {
		na := src.NumActions(s)
		for a := 0; a < na; a++ {
			buf = src.RawTransitions(s, a, buf[:0])
			for i, r := range buf {
				if int(r.Kind) >= len(laws) {
					return nil, fmt.Errorf("kernel: state %d action %d: law index %d outside table of %d", s, a, r.Kind, len(laws))
				}
				if r.RA > MaxReward || r.RH > MaxReward {
					return nil, fmt.Errorf("kernel: state %d action %d: reward counts (%d, %d) exceed %d", s, a, r.RA, r.RH, MaxReward)
				}
				if r.Dst < 0 || r.Dst >= n {
					return nil, fmt.Errorf("kernel: state %d action %d: destination %d out of range", s, a, r.Dst)
				}
				if int(r.Sigma) > c.maxSigma {
					c.maxSigma = int(r.Sigma)
				}
				mv := uint32(r.Kind) |
					uint32(r.Sigma)<<metaSigmaShift |
					uint32(r.RH)<<metaRHShift |
					uint32(r.RA)<<metaRAShift
				if i == 0 {
					mv |= metaNewAction
				}
				c.dst[k] = int32(r.Dst)
				c.meta[k] = mv
				k++
			}
		}
	}
	c.h = make([]float64, n)
	c.next = make([]float64, n)
	c.buildActionIndex()
	if err := c.SetChainParams(p, gamma); err != nil {
		return nil, err
	}
	return c, nil
}

// buildActionIndex derives stateAct and actStart from the packed metadata
// (see the struct fields). It runs once per Compile; the derived arrays
// are immutable and shared by clones.
func (c *Compiled) buildActionIndex() {
	n := c.NumStates()
	var actions int64
	for _, mv := range c.meta {
		if mv&metaNewAction != 0 {
			actions++
		}
	}
	c.stateAct = make([]int32, n+1)
	c.actStart = make([]int64, actions+1)
	var a int64
	for s := 0; s < n; s++ {
		c.stateAct[s] = int32(a)
		for k := c.transStart[s]; k < c.transStart[s+1]; k++ {
			if c.meta[k]&metaNewAction != 0 {
				c.actStart[a] = k
				a++
			}
		}
	}
	c.stateAct[n] = int32(a)
	c.actStart[a] = c.transStart[n]
}

// P returns the adversary resource fraction last set.
func (c *Compiled) P() float64 { return c.p }

// Gamma returns the switching probability last set.
func (c *Compiled) Gamma() float64 { return c.gamma }

// BlockRate evaluates the family's permanent-block-rate lower bound at the
// current chain parameters; it calibrates the gain tolerance an ε-accurate
// binary search on β needs (see analysis.Analyze).
func (c *Compiled) BlockRate() float64 { return c.rate(c.p, c.gamma) }

// BlockRateAt evaluates the family's permanent-block-rate lower bound at
// explicit chain parameters, without touching the instance's resolved
// state — the batched analysis driver uses it to calibrate each lane's
// tolerance from one shared Compiled.
func (c *Compiled) BlockRateAt(p, gamma float64) float64 { return c.rate(p, gamma) }

// Values returns a copy of the current value vector — after a solve, the
// converged relative values. Feed it to SetValues on a Compiled over the
// same structure (any chain parameters) to warm-start a related solve; the
// service layer uses this to seed solves at nearby p from solved neighbors.
func (c *Compiled) Values() []float64 {
	return append([]float64(nil), c.h...)
}

// SetValues installs v as the value vector, to be picked up by the next
// MeanPayoffCtx call with KeepValues set. The warm start changes only the
// number of sweeps a solve needs, never a certified outcome: every sweep's
// gain bracket contains the optimal gain regardless of the starting vector,
// so sign-only solves still decide the true sign (see MeanPayoffCtx).
func (c *Compiled) SetValues(v []float64) error {
	if len(v) != len(c.h) {
		return fmt.Errorf("kernel: warm-start vector has %d entries, model has %d states", len(v), len(c.h))
	}
	copy(c.h, v)
	return nil
}

// NumStates returns the state count.
func (c *Compiled) NumStates() int { return len(c.transStart) - 1 }

// NumTransitions returns the total transition count.
func (c *Compiled) NumTransitions() int64 { return c.transStart[c.NumStates()] }

// SetChainParams re-resolves transition probabilities for new (p, γ)
// through the family's law table without recompiling the structure.
func (c *Compiled) SetChainParams(p, gamma float64) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("kernel: adversary resource p = %v outside [0, 1]", p)
	}
	if gamma < 0 || gamma > 1 || math.IsNaN(gamma) {
		return fmt.Errorf("kernel: switching probability gamma = %v outside [0, 1]", gamma)
	}
	c.p, c.gamma = p, gamma
	c.resolveProbs()
	return nil
}

// resolveProbs evaluates the law table for the current chain parameters.
// Laws are pure in (p, γ, σ), so each (law, σ) pair is evaluated exactly
// once into a lookup table and the per-transition loop is pure reads.
func (c *Compiled) resolveProbs() {
	p, gamma := c.p, c.gamma
	vals := make([][]float64, len(c.laws))
	for li, law := range c.laws {
		lv := make([]float64, c.maxSigma+1)
		for s := 0; s <= c.maxSigma; s++ {
			lv[s] = law(p, gamma, s)
		}
		vals[li] = lv
	}
	for k := range c.meta {
		mv := c.meta[k]
		sigma := (mv >> metaSigmaShift) & 0xFF
		c.probs[k] = float32(vals[mv&metaLawMask][sigma])
	}
}

// CheckStochastic verifies that every action's resolved probabilities are
// non-negative, finite, and sum to 1 within tol at the current chain
// parameters — the structural well-formedness check model families run in
// their tests.
func (c *Compiled) CheckStochastic(tol float64) error {
	n := c.NumStates()
	for s := 0; s < n; s++ {
		var sum float64
		first := true
		check := func() error {
			if math.Abs(sum-1) > tol {
				return fmt.Errorf("kernel: state %d: action probabilities sum to %v, want 1", s, sum)
			}
			return nil
		}
		for k := c.transStart[s]; k < c.transStart[s+1]; k++ {
			if c.meta[k]&metaNewAction != 0 && !first {
				if err := check(); err != nil {
					return err
				}
				sum = 0
			}
			first = false
			pr := float64(c.probs[k])
			if pr < 0 || math.IsNaN(pr) || math.IsInf(pr, 0) {
				return fmt.Errorf("kernel: state %d: transition probability %v", s, pr)
			}
			sum += pr
		}
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// rewardTable fills tab with the β-view rewards indexed by the packed
// (ra, rh) bits.
func rewardTable(tab *[rwdTableSize]float64, beta float64) {
	for idx := 0; idx < rwdTableSize; idx++ {
		ra := float64(idx >> (metaRAShift - metaRwdShift))
		rh := float64(idx & ((1 << (metaRAShift - metaRwdShift)) - 1))
		tab[idx] = ra - beta*(ra+rh)
	}
}

// Result reports a compiled solve: the certified gain bracket [Lo, Hi],
// its midpoint, and the sweeps it took.
type Result struct {
	Gain      float64
	Lo, Hi    float64
	Iters     int
	Converged bool
}

// SignKnown reports whether the bracket determines the sign of the gain.
func (r *Result) SignKnown() bool { return r.Lo > 0 || r.Hi < 0 }

// Options tunes the compiled solver.
type Options struct {
	Tol      float64 // gain bracket width target; default 1e-7
	MaxIter  int     // sweep budget; default defaultMaxIter
	SignOnly bool    // stop when the bracket excludes zero
	// KeepValues reuses the value vector currently on this Compiled
	// instance — from the previous solve, or installed with SetValues — as
	// a warm start (valid across β and nearby (p, γ)).
	KeepValues bool
}

// damping is the aperiodicity mix τ of every solve, solo and batched: a
// sweep applies (1−τ)I + τT instead of the Bellman operator T.
const damping = 0.95

// defaultMaxIter is the sweep budget of a solo solve without
// Options.MaxIter and of every batched lane solve.
const defaultMaxIter = 500000

// signOnlyFloorFrac scales Tol down to the bracket width at which a
// sign-only solve gives up on certifying a sign and concludes the gain is
// numerically zero. Sign-only solves deliberately do NOT stop at Tol with
// the sign still open: a trajectory-dependent near-zero midpoint would make
// binary-search decisions depend on the starting vector, breaking the
// bitwise reproducibility of warm-started analyses. Iterating until the
// bracket excludes zero makes every decision exact — identical for any warm
// start and worker count — and the Tol·1e-6 floor merely guards termination
// when the gain is indistinguishable from zero.
const signOnlyFloorFrac = 1e-6

// signOnlyStallSweeps bounds the post-Tol grind: on large models the
// per-sweep floating-point noise in the chunk extrema can hold the bracket
// width above the Tol·signOnlyFloorFrac floor indefinitely. Once the width
// is below Tol (where a plain solve would already have stopped) and has
// not improved for this many consecutive sweeps, the solve concludes the
// gain is numerically zero rather than burning the whole MaxIter budget.
//
// While the bracket contracts geometrically (anywhere above the noise
// floor) every sweep improves the width by far more than one ULP, so the
// counter never fires and cannot perturb the exact-sign determinism
// argument; it engages only when the width is pinned at the noise floor,
// where a |gain| on the order of that noise (~1e-14 of the value scale) is
// the one residual case in which two solver trajectories could still
// disagree — a band six orders of magnitude narrower than the Tol-width
// midpoint rule this scheme replaced.
const signOnlyStallSweeps = 512

func (o *Options) defaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	if o.MaxIter <= 0 {
		o.MaxIter = defaultMaxIter
	}
}

// MeanPayoffCtx runs relative value iteration for reward r_β over the
// compiled structure. It returns a certified bracket [Lo, Hi] containing
// the optimal gain g* = max_σ MP(σ): for any value vector h,
//
//	min_s (T h − h)(s)  ≤  g*  ≤  max_s (T h − h)(s)
//
// for unichain models, where T is the Bellman operator; brackets of
// successive sweeps all contain g*, so they are intersected. Damping
// replaces T with (1−τ)I + τT (τ = damping), which keeps the bounds
// contracting on periodic structures. Values are renormalized against
// state 0 after every sweep.
//
// Each sweep is parallelized across SetWorkers goroutines; the result is
// bitwise identical at any worker count (see the Compiled type comment).
// In SignOnly mode the solve runs until the bracket excludes zero (or
// shrinks below Tol·signOnlyFloorFrac), so the certified sign is the true
// sign of the gain — independent of any KeepValues warm start.
//
// ctx is checked once per sweep, at the sweep boundary and never inside
// one, so a solve that runs to completion performs exactly the serial
// floating-point computation regardless of the context — cancellation can
// only decide WHETHER the next sweep starts, not what any sweep computes.
// On cancellation the partial Result (with the sweeps done so far in
// Iters) is returned alongside an error wrapping ctx.Err().
func (c *Compiled) MeanPayoffCtx(ctx context.Context, beta float64, opts Options) (*Result, error) {
	opts.defaults()
	sp := obs.StartSpan(solveSeconds)
	res, err := c.meanPayoffCtx(ctx, beta, opts)
	sp.End()
	solvesTotal.Inc()
	if res != nil {
		solveSweeps.Add(uint64(res.Iters))
	}
	return res, err
}

// meanPayoffCtx is MeanPayoffCtx behind the phase instruments.
func (c *Compiled) meanPayoffCtx(ctx context.Context, beta float64, opts Options) (*Result, error) {
	n := c.NumStates()
	if !opts.KeepValues {
		for i := range c.h {
			c.h[i] = 0
		}
	}
	var rwd [rwdTableSize]float64
	rewardTable(&rwd, beta)
	tau := damping
	res := &Result{Lo: math.Inf(-1), Hi: math.Inf(1)}
	h, next := c.h, c.next
	w := c.sweepWorkers()
	red := par.NewMinMax(par.NumChunks(n, w))
	lastWidth, stall := math.Inf(1), 0
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			c.h, c.next = h, next
			res.Gain = (res.Lo + res.Hi) / 2
			return res, fmt.Errorf("kernel: compiled solve canceled after %d sweeps: %w", res.Iters, err)
		}
		hv, nx := h, next // chunk workers read hv, write disjoint slots of nx
		par.For(n, w, func(chunk, from, to int) {
			lo, hi := math.Inf(1), math.Inf(-1)
			for s := from; s < to; s++ {
				kEnd := c.transStart[s+1]
				best := math.Inf(-1)
				var q float64
				for k := c.transStart[s]; k < kEnd; k++ {
					mv := c.meta[k]
					if mv&metaNewAction != 0 && k > c.transStart[s] {
						if q > best {
							best = q
						}
						q = 0
					}
					q += float64(c.probs[k]) * (rwd[(mv>>metaRwdShift)&metaRwdMask] + hv[c.dst[k]])
				}
				if q > best {
					best = q
				}
				d := best - hv[s]
				if d < lo {
					lo = d
				}
				if d > hi {
					hi = d
				}
				nx[s] = hv[s] + tau*d
			}
			red.Set(chunk, lo, hi)
		})
		lo, hi := red.Reduce()
		par.Shift(next, next[0], w)
		h, next = next, h
		res.Iters = iter
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
	}
	c.h, c.next = h, next
	res.Gain = (res.Lo + res.Hi) / 2
	if !res.Converged {
		return res, fmt.Errorf("kernel: compiled solve: bracket [%v, %v] after %d sweeps without convergence", res.Lo, res.Hi, res.Iters)
	}
	return res, nil
}

// GreedyPolicy extracts the policy that is greedy with respect to the
// current value vector (from the last MeanPayoffCtx call) under reward r_β.
// The extraction sweep is parallelized across SetWorkers goroutines; each
// state's choice depends only on the frozen value vector, so the policy is
// identical at any worker count.
func (c *Compiled) GreedyPolicy(beta float64) []int {
	n := c.NumStates()
	var rwd [rwdTableSize]float64
	rewardTable(&rwd, beta)
	policy := make([]int, n)
	h := c.h
	par.For(n, c.sweepWorkers(), func(_, from, to int) {
		c.greedyRange(policy, h, &rwd, from, to)
	})
	return policy
}

// greedyRange fills policy[from:to] with the r_β-greedy action indices.
func (c *Compiled) greedyRange(policy []int, h []float64, rwd *[rwdTableSize]float64, from, to int) {
	for s := from; s < to; s++ {
		kEnd := c.transStart[s+1]
		best := math.Inf(-1)
		bestA, curA := 0, -1
		var q float64
		for k := c.transStart[s]; k < kEnd; k++ {
			mv := c.meta[k]
			if mv&metaNewAction != 0 {
				if curA >= 0 && q > best {
					best, bestA = q, curA
				}
				curA++
				q = 0
			}
			q += float64(c.probs[k]) * (rwd[(mv>>metaRwdShift)&metaRwdMask] + h[c.dst[k]])
		}
		if curA >= 0 && q > best {
			bestA = curA
		}
		policy[s] = bestA
	}
}

// EvalERRevCtx brackets the expected relative revenue of a fixed policy as
// gain(r_A) / gain(r_A + r_H), each gain from fixed-policy relative value
// iteration. Both iterations share one sweep loop that streams the chosen
// action's transition range of every row once for the two value vectors;
// each vector keeps its own bracket and freezes once that bracket
// converges, so both gains are bitwise what two separate evaluations would
// return. Sweeps are parallelized like MeanPayoffCtx and equally independent
// of the worker count; ctx is checked at sweep boundaries, exactly as in
// MeanPayoffCtx.
//
// Every policy entry must name an action of its state; a bad entry is
// rejected up front, naming the state and the action.
func (c *Compiled) EvalERRevCtx(ctx context.Context, policy []int, opts Options) (float64, error) {
	opts.defaults()
	n := c.NumStates()
	if len(policy) != n {
		return 0, fmt.Errorf("kernel: policy covers %d states, model has %d", len(policy), n)
	}
	for s, a := range policy {
		if na := int(c.stateAct[s+1] - c.stateAct[s]); a < 0 || a >= na {
			return 0, fmt.Errorf("kernel: policy selects action %d in state %d with %d actions", a, s, na)
		}
	}
	w := c.sweepWorkers()
	chunks := par.NumChunks(n, w)
	adv, total := newPolicyEval(n, chunks), newPolicyEval(n, chunks)
	tau := damping
	for iter := 1; !adv.done || !total.done; iter++ {
		if iter > opts.MaxIter {
			if !adv.done {
				return 0, fmt.Errorf("kernel: evaluating adversary gain: %w", adv.noConvergence())
			}
			return 0, fmt.Errorf("kernel: evaluating total gain: %w", total.noConvergence())
		}
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("kernel: policy evaluation canceled after %d sweeps: %w", iter-1, err)
		}
		par.For(n, w, func(chunk, from, to int) {
			c.evalBothRange(policy, adv, total, tau, chunk, from, to)
		})
		// A converged vector is still swept until the other one stops, but
		// skips finishSweep: its values and bracket stay frozen.
		for _, pe := range []*policyEval{adv, total} {
			if !pe.done {
				pe.finishSweep(w, opts.Tol)
			}
		}
	}
	gainA, gainTotal := adv.gain(), total.gain()
	if gainTotal <= 0 {
		return 0, fmt.Errorf("kernel: total block rate %v is not positive", gainTotal)
	}
	return gainA / gainTotal, nil
}

// policyEval is the state of one fixed-policy relative value iteration
// inside EvalERRevCtx: its value vectors, its running gain bracket, and the
// per-chunk extrema of the sweep in progress.
type policyEval struct {
	h, next []float64
	lo, hi  float64
	red     *par.MinMax
	done    bool
}

func newPolicyEval(n, chunks int) *policyEval {
	return &policyEval{
		h:    make([]float64, n),
		next: make([]float64, n),
		lo:   math.Inf(-1),
		hi:   math.Inf(1),
		red:  par.NewMinMax(chunks),
	}
}

// finishSweep reduces the sweep's extrema into the running bracket,
// renormalizes against state 0, swaps the vectors, and marks the iteration
// done once the bracket is narrower than tol.
func (pe *policyEval) finishSweep(workers int, tol float64) {
	lo, hi := pe.red.Reduce()
	par.Shift(pe.next, pe.next[0], workers)
	pe.h, pe.next = pe.next, pe.h
	if lo > pe.lo {
		pe.lo = lo
	}
	if hi < pe.hi {
		pe.hi = hi
	}
	pe.done = pe.hi-pe.lo < tol
}

func (pe *policyEval) gain() float64 { return (pe.lo + pe.hi) / 2 }

func (pe *policyEval) noConvergence() error {
	return fmt.Errorf("kernel: policy evaluation did not converge: bracket [%v, %v]", pe.lo, pe.hi)
}

// evalBothRange runs one damped fixed-policy sweep over states [from, to)
// for r_A (adv) and r_A + r_H (total) at once. Each row's sums accumulate
// in transition order from zero, exactly as a sweep of either vector alone.
func (c *Compiled) evalBothRange(policy []int, adv, total *policyEval, tau float64, chunk, from, to int) {
	hA, nA, hT, nT := adv.h, adv.next, total.h, total.next
	loA, hiA := math.Inf(1), math.Inf(-1)
	loT, hiT := loA, hiA
	for s := from; s < to; s++ {
		act := int(c.stateAct[s]) + policy[s]
		var qA, qT float64
		for k := c.actStart[act]; k < c.actStart[act+1]; k++ {
			mv, pr, d := c.meta[k], float64(c.probs[k]), c.dst[k]
			ra := float64((mv >> metaRAShift) & MaxReward)
			qA += pr * (ra + hA[d])
			qT += pr * (ra + float64((mv>>metaRHShift)&MaxReward) + hT[d])
		}
		dA, dT := qA-hA[s], qT-hT[s]
		if dA < loA {
			loA = dA
		}
		if dA > hiA {
			hiA = dA
		}
		if dT < loT {
			loT = dT
		}
		if dT > hiT {
			hiT = dT
		}
		nA[s] = hA[s] + tau*dA
		nT[s] = hT[s] + tau*dT
	}
	adv.red.Set(chunk, loA, hiA)
	total.red.Set(chunk, loT, hiT)
}
