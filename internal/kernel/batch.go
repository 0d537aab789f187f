package kernel

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/par"
)

// This file implements the batched multi-lane mean-payoff kernel: K
// parameter instances ("lanes") over ONE shared compiled transition
// structure, solved in a single value-iteration loop. Per sweep, each CSR
// row's column indices and packed law/reward metadata are read once and
// applied to K interleaved value lanes, so the irregular structure traffic
// that dominates a sweep is amortized K ways while the per-lane
// floating-point work stays exactly the solo Jacobi sequence.
//
// Bitwise contract: lane ln of a batched solve is bitwise identical to a
// solo Compiled.MeanPayoffCtx at the same (p, γ, β, Tol, warm start) —
// same Gain/Lo/Hi, same Iters, same converged value vector. The argument:
//
//   - Lanes never mix. Every floating-point op indexes a single lane's
//     probability, reward and value slots, in the same order (transition
//     ascending, action flush points unchanged) as the solo sweep.
//   - The per-lane probabilities are materialized through the identical
//     law-table path as Compiled.resolveProbs (float64 law evaluation,
//     then one float64→float32 round), so pr[lane] equals the solo probs[k].
//   - The gain bracket uses the same exact min/max chunk reduction as the
//     solo kernel; min/max are order-independent, so the chunk count (and
//     therefore the worker count and lane count) cannot perturb it.
//   - A converged lane retires: its slots are frozen (copied out, never
//     read again) and the remaining lanes' per-lane op sequences are
//     unaffected — each lane's arithmetic never touched the retired lane's
//     slots in the first place.
//
// Retirement also means a batch of lanes with different convergence speeds
// costs max(iters) sweeps of structure traffic, not sum(iters).
//
// Where the assembly dense sweep runs (asmFits), NewBatch widens a batch of
// 2..7 lanes to the dense width with idle lanes: zero probabilities and
// rewards, never issued a solve, never read. The 8-wide assembly sweep
// costs less than two generic per-lane passes, so computing idle slots is
// cheaper than running narrow, and callers never need to know the width.

// LaneParams fixes one lane's chain parameters. The β view of the reward
// is chosen per solve (the betas argument of BatchMeanPayoff), matching
// Algorithm 1's shape: (p, γ) stays constant across a binary search on β.
type LaneParams struct {
	P     float64 // adversary resource fraction in [0, 1]
	Gamma float64 // switching probability in [0, 1]
}

// BatchOptions tunes one batched solve. Fields mirror Options lane-wise.
type BatchOptions struct {
	// Tol holds the per-lane gain bracket width target, len NumLanes; nil
	// or non-positive entries default to 1e-7. Algorithm 1 calibrates it
	// per lane because the required gain resolution scales with the lane's
	// block rate at (p, γ).
	Tol []float64
	// MaxIter bounds the shared sweep count; default 500000.
	MaxIter int
	// Damping is the aperiodicity mix shared by all lanes; default 0.95.
	Damping float64
	// SignOnly stops each lane as soon as its bracket excludes zero, with
	// exactly the floor and stall semantics of Options.SignOnly.
	SignOnly bool
	// KeepValues starts every lane from its current vector (the previous
	// solve's result, or SetValues); lanes without one start from zero,
	// exactly like a cold solo solve.
	KeepValues bool
}

// Batch solves K parameter lanes over one shared compiled structure. It
// borrows the donor's immutable arrays (transition ranges, destinations,
// metadata, law table) and owns lane-major value/probability strips, so
// constructing a Batch does not clone the structure.
//
// A Batch is not safe for concurrent use, and the donor Compiled must not
// be recompiled while the Batch is alive (SetChainParams on the donor is
// fine: the Batch materialized its own per-lane probabilities).
type Batch struct {
	c     *Compiled
	k     int          // lane stride: len(lanes) plus any idle padding lanes
	lanes []LaneParams // the requested lanes, 0..len(lanes)-1

	probs []float32 // lane-major probabilities: probs[t*k+lane]
	rwd   []float64 // lane-major β-view reward table: rwd[idx*k+lane]

	h, next []float64 // lane-major value buffers: h[s*k+lane]

	cur [][]float64 // per-lane value vectors carried between solves (requested lanes)
	has []bool      // cur[lane] holds a vector

	workers int

	// Per-solve scratch, sized on first use and reused so the steady-state
	// solve loop allocates nothing beyond the results slice.
	act       []int     // active lanes, ascending
	q, best   []float64 // per-chunk action/state accumulators, chunks*k
	los, his  []float64 // per-chunk bracket extrema, chunks*k
	shift     []float64 // per-lane relative-value normalization shift
	tol       []float64
	resLo     []float64
	resHi     []float64
	lastWidth []float64
	stall     []int
	laneStart []int // global sweep index each lane's current solve began after

	tp []uint64 // packed transition program for the assembly sweep; see buildTransProgram
}

// NewBatch builds a batch of lanes over c's compiled structure, resolving
// each lane's transition probabilities through the family law table
// exactly as Compiled.SetChainParams would. On hardware running the
// assembly dense sweep, 2..7 lanes are padded to DenseBatchWidth with idle
// lanes (see the file comment); NumLanes still reports len(lanes).
func NewBatch(c *Compiled, lanes []LaneParams) (*Batch, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("kernel: batch needs at least one lane")
	}
	for i, lp := range lanes {
		if lp.P < 0 || lp.P > 1 || math.IsNaN(lp.P) {
			return nil, fmt.Errorf("kernel: lane %d: adversary resource p = %v outside [0, 1]", i, lp.P)
		}
		if lp.Gamma < 0 || lp.Gamma > 1 || math.IsNaN(lp.Gamma) {
			return nil, fmt.Errorf("kernel: lane %d: switching probability gamma = %v outside [0, 1]", i, lp.Gamma)
		}
	}
	n := c.NumStates()
	k := len(lanes)
	if k > 1 && k < denseLaneWidth && asmFits(c) {
		k = denseLaneWidth
	}
	b := &Batch{
		c:     c,
		k:     k,
		lanes: append([]LaneParams(nil), lanes...),
		probs: make([]float32, int(c.NumTransitions())*k),
		rwd:   make([]float64, rwdTableSize*k),
		h:     make([]float64, n*k),
		next:  make([]float64, n*k),
		cur:   make([][]float64, len(lanes)),
		has:   make([]bool, len(lanes)),
	}
	for ln := range b.cur {
		b.cur[ln] = make([]float64, n)
	}
	for ln := range lanes {
		b.resolveLane(ln)
	}
	return b, nil
}

// resolveLane materializes lane ln's probability strip, replicating the
// solo resolveProbs path bit for bit: each (law, σ) pair is evaluated once
// in float64 and the per-transition value rounds through float32 exactly
// as the solo probs array does.
func (b *Batch) resolveLane(ln int) {
	c, k := b.c, b.k
	p, gamma := b.lanes[ln].P, b.lanes[ln].Gamma
	vals := make([][]float64, len(c.laws))
	for li, law := range c.laws {
		lv := make([]float64, c.maxSigma+1)
		for s := 0; s <= c.maxSigma; s++ {
			lv[s] = law(p, gamma, s)
		}
		vals[li] = lv
	}
	for t := range c.meta {
		mv := c.meta[t]
		sigma := (mv >> metaSigmaShift) & 0xFF
		b.probs[t*k+ln] = float32(vals[mv&metaLawMask][sigma])
	}
}

// NumLanes returns the requested lane count K (idle padding lanes are not
// counted).
func (b *Batch) NumLanes() int { return len(b.lanes) }

// NumStates returns the shared structure's state count.
func (b *Batch) NumStates() int { return b.c.NumStates() }

// SetWorkers sets the per-sweep goroutine count, with the same semantics
// as Compiled.SetWorkers; n <= 0 auto-sizes to the machine and the model
// (scaled by the lane count, since each state carries K lanes of work).
func (b *Batch) SetWorkers(n int) { b.workers = n }

func (b *Batch) sweepWorkers() int {
	if b.workers > 0 {
		return b.workers
	}
	per := minStatesPerWorker / b.k
	if per < 1 {
		per = 1
	}
	return par.Grain(b.c.NumStates(), par.Workers(0), per)
}

// Values returns a copy of lane ln's current value vector — after a
// solve, the lane's converged relative values — or nil if the lane has
// none yet. The vector is interchangeable with Compiled.Values.
func (b *Batch) Values(ln int) []float64 {
	if !b.has[ln] {
		return nil
	}
	return append([]float64(nil), b.cur[ln]...)
}

// SetValues installs v as lane ln's value vector, picked up by the next
// solve with KeepValues set — the batched equivalent of
// Compiled.SetValues, with the same warm-start soundness argument.
func (b *Batch) SetValues(ln int, v []float64) error {
	if len(v) != b.c.NumStates() {
		return fmt.Errorf("kernel: warm-start vector has %d entries, model has %d states", len(v), b.c.NumStates())
	}
	copy(b.cur[ln], v)
	b.has[ln] = true
	return nil
}

// sizeScratch (re)sizes the per-solve scratch for the given chunk count.
func (b *Batch) sizeScratch(chunks int) {
	k := b.k
	if cap(b.act) < k {
		b.act = make([]int, 0, k)
	}
	if need := chunks * k; cap(b.q) < need {
		b.q = make([]float64, need)
		b.best = make([]float64, need)
		b.los = make([]float64, need)
		b.his = make([]float64, need)
	}
	if b.shift == nil {
		b.shift = make([]float64, k)
		b.tol = make([]float64, k)
		b.resLo = make([]float64, k)
		b.resHi = make([]float64, k)
		b.lastWidth = make([]float64, k)
		b.stall = make([]int, k)
		b.laneStart = make([]int, k)
	}
}

// buildTransProgram packs each transition's sweep-ready operands into one
// word, built once per Batch and shared by every solve: the destination
// row's byte offset (state*64, the 8-lane float64 stride) in the high
// half, the reward row's byte offset in bits 6..31, and the new-action
// flag in bit 0. The assembly sweep then advances two pointers per
// transition (probs +32B, program +8B) instead of decoding meta.
func (b *Batch) buildTransProgram() {
	if b.tp != nil {
		return
	}
	c := b.c
	tp := make([]uint64, len(c.meta))
	for t, mv := range c.meta {
		e := uint64(c.dst[t])*64<<32 | uint64((mv>>metaRwdShift)&metaRwdMask)*64
		if mv&metaNewAction != 0 {
			e |= 1
		}
		tp[t] = e
	}
	b.tp = tp
}

// BatchMeanPayoff runs one batched relative-value-iteration solve over b's
// lanes, lane ln at reward r_{betas[ln]}. It is (*Batch).MeanPayoffCtx by
// another entry point; see there for semantics.
func BatchMeanPayoff(ctx context.Context, b *Batch, betas []float64, opts BatchOptions) ([]Result, error) {
	return b.MeanPayoffCtx(ctx, betas, opts)
}

// LaneSolve is one solve request inside a batched run: the β defining the
// lane's reward view r_β, and the gain bracket width target (non-positive
// defaults to 1e-7, like BatchOptions.Tol entries).
type LaneSolve struct {
	Beta float64
	Tol  float64
}

// BatchRunOptions tunes a batched run; fields are shared by every solve of
// every lane (the per-solve β and tolerance arrive via LaneSolve).
type BatchRunOptions struct {
	// MaxIter bounds each individual lane solve's sweep count; default
	// 500000, exactly the solo Options.MaxIter semantics.
	MaxIter int
	// Damping is the aperiodicity mix shared by all lanes; default 0.95.
	Damping float64
	// SignOnly stops each lane solve as soon as its bracket excludes zero,
	// with the floor and stall semantics of Options.SignOnly.
	SignOnly bool
	// KeepValues starts every lane from its current vector (the previous
	// solve's result, or SetValues); lanes without one start from zero.
	KeepValues bool
}

// MeanPayoffCtx runs relative value iteration for all lanes in one loop,
// lane ln under reward r_{betas[ln]}. Per sweep, the shared structure is
// streamed once; each lane's value update, normalization shift, gain
// bracket and convergence test are computed independently with exactly
// the solo MeanPayoffCtx semantics (including SignOnly's exact-sign rule),
// so every lane's Result and value vector are bitwise identical to a solo
// solve at that lane's parameters and warm start (see the file comment).
//
// Converged lanes retire from the sweep; the solve returns when every
// lane has converged or MaxIter is exhausted (then Converged reports the
// per-lane outcome and the error names the first unconverged lane).
//
// ctx is checked once per sweep, exactly like the solo kernel: the partial
// per-lane Results are returned alongside an error wrapping ctx.Err(),
// and each lane keeps its current vector for a later KeepValues resume.
func (b *Batch) MeanPayoffCtx(ctx context.Context, betas []float64, opts BatchOptions) ([]Result, error) {
	k := b.NumLanes()
	if len(betas) != k {
		return nil, fmt.Errorf("kernel: batched solve got %d betas for %d lanes", len(betas), k)
	}
	if opts.Tol != nil && len(opts.Tol) != k {
		return nil, fmt.Errorf("kernel: batched solve got %d tolerances for %d lanes", len(opts.Tol), k)
	}
	return b.RunCtx(ctx, BatchRunOptions{
		MaxIter:    opts.MaxIter,
		Damping:    opts.Damping,
		SignOnly:   opts.SignOnly,
		KeepValues: opts.KeepValues,
	}, func(ln int, prev *Result) (LaneSolve, bool) {
		if prev != nil {
			return LaneSolve{}, false // one solve per lane
		}
		t := 0.0
		if opts.Tol != nil {
			t = opts.Tol[ln]
		}
		return LaneSolve{Beta: betas[ln], Tol: t}, true
	})
}

// installSolve arms lane ln for a new solve starting after global sweep
// iter: it materializes the lane's β-view reward column (the same table
// rewardTable builds per lane), resets the lane's bracket and stall state,
// and re-bases the lane's sweep counter. The lane's value column is left
// in place — exactly the solo KeepValues chaining, where solve i+1 starts
// from solve i's converged vector.
func (b *Batch) installSolve(ln int, s LaneSolve, iter int, r *Result) {
	k := b.k
	for idx := 0; idx < rwdTableSize; idx++ {
		ra := float64(idx >> (metaRAShift - metaRwdShift))
		rh := float64(idx & ((1 << (metaRAShift - metaRwdShift)) - 1))
		b.rwd[idx*k+ln] = ra - s.Beta*(ra+rh)
	}
	t := s.Tol
	if t <= 0 {
		t = 1e-7
	}
	b.tol[ln] = t
	b.resLo[ln] = math.Inf(-1)
	b.resHi[ln] = math.Inf(1)
	b.lastWidth[ln] = math.Inf(1)
	b.stall[ln] = 0
	b.laneStart[ln] = iter
	*r = Result{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// RunCtx is the batched solve engine: each lane works through its own
// stream of solves, supplied one at a time by src, while every sweep of
// the shared loop advances all lanes together over one pass of the shared
// structure. src(ln, nil) supplies lane ln's first solve (or reports the
// lane idle); when a lane's solve converges, src(ln, &result) is called
// with the finished Result and either supplies the lane's next solve —
// the lane continues in place, warm-started from its converged vector,
// exactly like solo KeepValues chaining — or retires the lane.
//
// This asynchronous per-lane advancement is what keeps the batch dense: a
// lane that finishes a cheap solve immediately starts its next one instead
// of idling while slower lanes converge, so the full-width sweep (the
// specialized dense path) carries almost all of the work. Per lane the
// solve sequence is bitwise identical to the solo chained solves, since
// lanes never mix and each lane's install/convergence logic is exactly the
// solo kernel's.
//
// The returned slice holds each lane's LAST solve result (zero Result for
// lanes never issued a solve). On cancellation or a lane exhausting
// MaxIter, partial results return with a non-nil error.
func (b *Batch) RunCtx(ctx context.Context, opts BatchRunOptions, src func(ln int, prev *Result) (LaneSolve, bool)) ([]Result, error) {
	sp := obs.StartSpan(batchRunSeconds)
	defer sp.End()
	nl := b.NumLanes()
	batchRunsTotal.Inc()
	batchLanesTotal.Add(uint64(nl))
	// Every lane solve that ends — converged, out of sweeps, or cut off —
	// counts like one solo MeanPayoffCtx call, so the kernel solve and
	// sweep totals cover batched lanes too.
	endSolve := func(r *Result) {
		solvesTotal.Inc()
		solveSweeps.Add(uint64(r.Iters))
	}
	k := b.k
	if opts.MaxIter <= 0 {
		opts.MaxIter = 500000
	}
	if opts.Damping <= 0 || opts.Damping > 1 {
		opts.Damping = 0.95
	}
	c := b.c
	n := c.NumStates()
	w := b.sweepWorkers()
	chunks := par.NumChunks(n, w)
	b.sizeScratch(chunks)
	// Pack each lane's starting vector into the lane-major buffer; idle
	// padding lanes start at zero, which their zero probabilities and
	// rewards keep them at.
	for ln := 0; ln < k; ln++ {
		if ln < nl && opts.KeepValues && b.has[ln] {
			cv := b.cur[ln]
			for s := 0; s < n; s++ {
				b.h[s*k+ln] = cv[s]
			}
		} else {
			for s := 0; s < n; s++ {
				b.h[s*k+ln] = 0
			}
		}
	}
	res := make([]Result, nl)
	act := b.act[:0]
	for ln := 0; ln < nl; ln++ {
		if s, ok := src(ln, nil); ok {
			b.installSolve(ln, s, 0, &res[ln])
			act = append(act, ln)
		}
	}
	tau := opts.Damping
	h, next := b.h, b.next

	// unpack freezes lane ln's current vector (from the lane-major buffer
	// v) into cur[ln], so retired slots are never read again.
	unpack := func(ln int, v []float64) {
		cv := b.cur[ln]
		for s := 0; s < n; s++ {
			cv[s] = v[s*k+ln]
		}
		b.has[ln] = true
	}

	// The sweep and shift closures are created once per solve and read the
	// loop-carried variables (hv/nx swap, act, dense) through their
	// environment, keeping the steady-state loop allocation-free.
	var hv, nx []float64
	var dense bool
	sweep8 := b.makeSweep8(tau, &hv, &nx)
	asm8, haveAsm := b.asmSweep(tau, &hv, &nx)
	sweep := func(chunk, from, to int) {
		qv := b.q[chunk*k : chunk*k+k]
		bv := b.best[chunk*k : chunk*k+k]
		lov := b.los[chunk*k : chunk*k+k]
		hiv := b.his[chunk*k : chunk*k+k]
		for _, ln := range act {
			lov[ln] = math.Inf(1)
			hiv[ln] = math.Inf(-1)
		}
		for s := from; s < to; s++ {
			kStart, kEnd := c.transStart[s], c.transStart[s+1]
			for _, ln := range act {
				bv[ln] = math.Inf(-1)
				qv[ln] = 0
			}
			for t := kStart; t < kEnd; t++ {
				mv := c.meta[t]
				if mv&metaNewAction != 0 && t > kStart {
					if dense {
						for ln := 0; ln < k; ln++ {
							if qv[ln] > bv[ln] {
								bv[ln] = qv[ln]
							}
							qv[ln] = 0
						}
					} else {
						for _, ln := range act {
							if qv[ln] > bv[ln] {
								bv[ln] = qv[ln]
							}
							qv[ln] = 0
						}
					}
				}
				pb := int(t) * k
				rb := int((mv>>metaRwdShift)&metaRwdMask) * k
				db := int(c.dst[t]) * k
				pr := b.probs[pb : pb+k]
				rw := b.rwd[rb : rb+k]
				hh := hv[db : db+k]
				if dense {
					// All lanes live: a dense inner loop the compiler can
					// bounds-check-eliminate and keep in registers.
					for ln := 0; ln < k; ln++ {
						qv[ln] += float64(pr[ln]) * (rw[ln] + hh[ln])
					}
				} else {
					for _, ln := range act {
						qv[ln] += float64(pr[ln]) * (rw[ln] + hh[ln])
					}
				}
			}
			sb := s * k
			hs := hv[sb : sb+k]
			ns := nx[sb : sb+k]
			for _, ln := range act {
				if qv[ln] > bv[ln] {
					bv[ln] = qv[ln]
				}
				d := bv[ln] - hs[ln]
				if d < lov[ln] {
					lov[ln] = d
				}
				if d > hiv[ln] {
					hiv[ln] = d
				}
				ns[ln] = hs[ln] + tau*d
			}
		}
	}
	shiftFn := func(_, from, to int) {
		for s := from; s < to; s++ {
			sb := s * k
			ns := nx[sb : sb+k]
			if dense {
				for ln := 0; ln < k; ln++ {
					ns[ln] -= b.shift[ln]
				}
			} else {
				for _, ln := range act {
					ns[ln] -= b.shift[ln]
				}
			}
		}
	}

	for iter := 1; len(act) > 0; iter++ {
		if err := ctx.Err(); err != nil {
			for _, ln := range act {
				unpack(ln, h)
				r := &res[ln]
				r.Lo, r.Hi = b.resLo[ln], b.resHi[ln]
				r.Gain = (r.Lo + r.Hi) / 2
				endSolve(r)
			}
			b.h, b.next = h, next
			b.act = act[:0]
			return res, fmt.Errorf("kernel: batched solve canceled after %d sweeps: %w", iter-1, err)
		}
		hv, nx = h, next
		dense = len(act) == k
		// Dispatch order: the assembly sweep, when present, stays on while
		// any lane is live — it always computes all 8 lanes, and its
		// whole-batch cost is well under even one generic single-lane pass.
		// Retired and idle slots are write-only from the batch's point of
		// view: retired results were frozen by unpack, idle lanes have none,
		// and the reductions below only visit live lanes, so the extra
		// arithmetic cannot perturb anything (the bitwise argument in the
		// file comment — lanes never mix — covers it).
		switch {
		case haveAsm:
			par.For(n, w, asm8)
		case dense && k == denseLaneWidth:
			par.For(n, w, sweep8)
		default:
			par.For(n, w, sweep)
		}
		// Per-lane normalization: capture each lane's new state-0 value
		// before shifting, exactly like par.Shift(next, next[0], w).
		for _, ln := range act {
			b.shift[ln] = nx[ln]
		}
		par.For(n, w, shiftFn)
		h, next = next, h
		// Per-lane exact min/max reduction over chunks, bracket
		// intersection and the solo convergence rule.
		keep := act[:0]
		exhausted := -1
		for _, ln := range act {
			lo, hi := b.los[ln], b.his[ln]
			for ci := 1; ci < chunks; ci++ {
				lo = math.Min(lo, b.los[ci*k+ln])
				hi = math.Max(hi, b.his[ci*k+ln])
			}
			r := &res[ln]
			r.Iters = iter - b.laneStart[ln]
			if lo > b.resLo[ln] {
				b.resLo[ln] = lo
			}
			if hi < b.resHi[ln] {
				b.resHi[ln] = hi
			}
			width := b.resHi[ln] - b.resLo[ln]
			if opts.SignOnly {
				if width < b.tol[ln] {
					if width < b.lastWidth[ln] {
						b.stall[ln] = 0
					} else {
						b.stall[ln]++
					}
				}
				r.Converged = b.resLo[ln] > 0 || b.resHi[ln] < 0 ||
					width < b.tol[ln]*signOnlyFloorFrac ||
					b.stall[ln] >= signOnlyStallSweeps
			} else {
				r.Converged = width < b.tol[ln]
			}
			b.lastWidth[ln] = width
			switch {
			case r.Converged:
				r.Lo, r.Hi = b.resLo[ln], b.resHi[ln]
				r.Gain = (r.Lo + r.Hi) / 2
				endSolve(r)
				if s, ok := src(ln, r); ok {
					// Next solve for this lane: continue in place from the
					// converged vector, exactly solo KeepValues chaining.
					b.installSolve(ln, s, iter, r)
					keep = append(keep, ln)
				} else {
					unpack(ln, h) // freeze at exactly the solo stopping sweep
				}
			case r.Iters >= opts.MaxIter:
				if exhausted < 0 {
					exhausted = ln
				}
				r.Lo, r.Hi = b.resLo[ln], b.resHi[ln]
				r.Gain = (r.Lo + r.Hi) / 2
				endSolve(r)
				unpack(ln, h)
			default:
				keep = append(keep, ln)
			}
		}
		act = keep
		if exhausted >= 0 {
			for _, ln := range act {
				r := &res[ln]
				r.Lo, r.Hi = b.resLo[ln], b.resHi[ln]
				r.Gain = (r.Lo + r.Hi) / 2
				endSolve(r)
				unpack(ln, h)
			}
			b.h, b.next = h, next
			b.act = act[:0]
			return res, fmt.Errorf("kernel: batched solve: lane %d bracket [%v, %v] after %d sweeps without convergence",
				exhausted, res[exhausted].Lo, res[exhausted].Hi, res[exhausted].Iters)
		}
	}
	b.h, b.next = h, next
	b.act = act
	return res, nil
}

// DenseBatchWidth is the lane count the specialized dense sweeps (scalar
// and assembly) are built for; callers cutting points into lane groups
// should use exactly this width. Where DenseBatchAsm reports true, NewBatch
// pads narrower groups to it (see the file comment).
const DenseBatchWidth = denseLaneWidth

// denseLaneWidth is the lane count the hand-specialized dense sweep is
// built for: the specialized sweep keeps all 8 action accumulators in
// registers across an action span and fully unrolls the lane math behind
// array-pointer conversions, which is where the batched kernel's per-lane
// advantage over the solo sweep actually comes from. Other lane counts run
// the generic sweep, which is correct but carries per-lane loop and
// bounds-check overhead that roughly cancels the shared-structure savings.
const denseLaneWidth = 8

// makeSweep8 builds the dense 8-lane sweep body. It is only called while
// all 8 lanes are active (dense); per lane it performs exactly the solo
// sweep's floating-point sequence — q accumulation in transition order,
// flush-on-new-action maxima, d = best-h, min/max bracket update, damped
// write — so the bitwise contract of the generic sweep carries over
// unchanged. hvp/nxp indirect through the caller's swap variables.
func (b *Batch) makeSweep8(tau float64, hvp, nxp *[]float64) func(chunk, from, to int) {
	c := b.c
	transStart, dst, meta := c.transStart, c.dst, c.meta
	return func(chunk, from, to int) {
		hv, nx := *hvp, *nxp
		probs, rwd := b.probs, b.rwd
		lov := (*[8]float64)(b.los[chunk*8:])
		hiv := (*[8]float64)(b.his[chunk*8:])
		negInf := math.Inf(-1)
		lo0, lo1, lo2, lo3 := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
		lo4, lo5, lo6, lo7 := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
		hi0, hi1, hi2, hi3 := negInf, negInf, negInf, negInf
		hi4, hi5, hi6, hi7 := negInf, negInf, negInf, negInf
		for s := from; s < to; s++ {
			kStart, kEnd := transStart[s], transStart[s+1]
			b0, b1, b2, b3 := negInf, negInf, negInf, negInf
			b4, b5, b6, b7 := negInf, negInf, negInf, negInf
			for t := kStart; ; {
				// One action span: accumulate q in registers, flush once.
				// The flush runs even for an empty transition range, exactly
				// like the generic sweep's final qv-vs-bv comparison.
				var q0, q1, q2, q3, q4, q5, q6, q7 float64
				for span := t; t < kEnd; t++ {
					mv := meta[t]
					if mv&metaNewAction != 0 && t > span {
						break
					}
					pr := (*[8]float32)(probs[int(t)*8:])
					rw := (*[8]float64)(rwd[int((mv>>metaRwdShift)&metaRwdMask)*8:])
					hh := (*[8]float64)(hv[int(dst[t])*8:])
					q0 += float64(pr[0]) * (rw[0] + hh[0])
					q1 += float64(pr[1]) * (rw[1] + hh[1])
					q2 += float64(pr[2]) * (rw[2] + hh[2])
					q3 += float64(pr[3]) * (rw[3] + hh[3])
					q4 += float64(pr[4]) * (rw[4] + hh[4])
					q5 += float64(pr[5]) * (rw[5] + hh[5])
					q6 += float64(pr[6]) * (rw[6] + hh[6])
					q7 += float64(pr[7]) * (rw[7] + hh[7])
				}
				if q0 > b0 {
					b0 = q0
				}
				if q1 > b1 {
					b1 = q1
				}
				if q2 > b2 {
					b2 = q2
				}
				if q3 > b3 {
					b3 = q3
				}
				if q4 > b4 {
					b4 = q4
				}
				if q5 > b5 {
					b5 = q5
				}
				if q6 > b6 {
					b6 = q6
				}
				if q7 > b7 {
					b7 = q7
				}
				if t >= kEnd {
					break
				}
			}
			hs := (*[8]float64)(hv[s*8:])
			ns := (*[8]float64)(nx[s*8:])
			d := b0 - hs[0]
			if d < lo0 {
				lo0 = d
			}
			if d > hi0 {
				hi0 = d
			}
			ns[0] = hs[0] + tau*d
			d = b1 - hs[1]
			if d < lo1 {
				lo1 = d
			}
			if d > hi1 {
				hi1 = d
			}
			ns[1] = hs[1] + tau*d
			d = b2 - hs[2]
			if d < lo2 {
				lo2 = d
			}
			if d > hi2 {
				hi2 = d
			}
			ns[2] = hs[2] + tau*d
			d = b3 - hs[3]
			if d < lo3 {
				lo3 = d
			}
			if d > hi3 {
				hi3 = d
			}
			ns[3] = hs[3] + tau*d
			d = b4 - hs[4]
			if d < lo4 {
				lo4 = d
			}
			if d > hi4 {
				hi4 = d
			}
			ns[4] = hs[4] + tau*d
			d = b5 - hs[5]
			if d < lo5 {
				lo5 = d
			}
			if d > hi5 {
				hi5 = d
			}
			ns[5] = hs[5] + tau*d
			d = b6 - hs[6]
			if d < lo6 {
				lo6 = d
			}
			if d > hi6 {
				hi6 = d
			}
			ns[6] = hs[6] + tau*d
			d = b7 - hs[7]
			if d < lo7 {
				lo7 = d
			}
			if d > hi7 {
				hi7 = d
			}
			ns[7] = hs[7] + tau*d
		}
		lov[0], lov[1], lov[2], lov[3] = lo0, lo1, lo2, lo3
		lov[4], lov[5], lov[6], lov[7] = lo4, lo5, lo6, lo7
		hiv[0], hiv[1], hiv[2], hiv[3] = hi0, hi1, hi2, hi3
		hiv[4], hiv[5], hiv[6], hiv[7] = hi4, hi5, hi6, hi7
	}
}
