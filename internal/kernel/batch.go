package kernel

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/par"
)

// This file implements the batched multi-lane mean-payoff kernel: up to
// DenseBatchWidth (8) parameter instances ("lanes") over ONE shared
// compiled transition structure, solved in a single value-iteration loop.
// Per sweep, the AVX2 assembly (batch_avx2_amd64.s) reads each CSR row's
// column indices and packed law/reward metadata once and applies them to 8
// interleaved value lanes, so the irregular structure traffic that
// dominates a sweep is amortized 8 ways while the per-lane floating-point
// work stays exactly the solo Jacobi sequence.
//
// The assembly is the only batched sweep. Off amd64, without AVX2, or at
// 2^26 states and more, NewBatch fails and every point is solved alone
// with Compiled.MeanPayoffCtx; the sweep scheduler never batches there.
// Portable Go batch sweeps did the work of 1.2–1.8 (8 lanes) and 0.5–1.4
// (2–4 lanes) solo sweeps per pass against the assembly's 4.2–7.3
// (docs/PERFORMANCE.md), too little to pay for a second implementation.
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
//     therefore the worker count) cannot perturb it.
//   - A converged lane retires: its slots are frozen (copied out, never
//     read again) and the remaining lanes' per-lane op sequences are
//     unaffected — each lane's arithmetic never touched the retired lane's
//     slots in the first place.
//
// Retirement also means a batch of lanes with different convergence speeds
// costs max(iters) sweeps of structure traffic, not sum(iters).
//
// NewBatch pads a batch of fewer than 8 lanes with idle lanes: zero
// probabilities and rewards, never issued a solve, never read. The 8-wide
// assembly sweep always computes every slot, so idle slots cost nothing
// extra, and callers never need to know the width.

// DenseBatchWidth is the lane count of every Batch: the width of the
// assembly sweep, which keeps 8 lanes of action accumulators in two YMM
// registers. Callers cutting points into lane groups should use exactly
// this width.
const DenseBatchWidth = 8

// LaneParams fixes one lane's chain parameters. The β view of the reward
// is chosen per solve (LaneSolve.Beta), matching Algorithm 1's shape:
// (p, γ) stays constant across a binary search on β.
type LaneParams struct {
	P     float64 // adversary resource fraction in [0, 1]
	Gamma float64 // switching probability in [0, 1]
}

// Batch solves up to DenseBatchWidth parameter lanes over one shared
// compiled structure. It borrows the donor's immutable arrays (transition
// ranges, destinations, metadata, law table) and owns lane-major
// value/probability strips, so constructing a Batch does not clone the
// structure.
//
// A Batch is not safe for concurrent use, and the donor Compiled must not
// be recompiled while the Batch is alive (SetChainParams on the donor is
// fine: the Batch materialized its own per-lane probabilities).
type Batch struct {
	c     *Compiled
	lanes []LaneParams // the requested lanes, 0..len(lanes)-1

	probs []float32 // lane-major probabilities: probs[t*8+lane]
	rwd   []float64 // lane-major β-view reward table: rwd[idx*8+lane]

	h, next []float64 // lane-major value buffers: h[s*8+lane]

	cur [][]float64 // per-lane value vectors carried between solves (requested lanes)
	has []bool      // cur[lane] holds a vector

	workers int

	// Per-solve scratch, sized on first use and reused so the steady-state
	// solve loop allocates nothing beyond the results slice.
	act       []int     // active lanes, ascending
	los, his  []float64 // per-chunk bracket extrema, chunks*DenseBatchWidth
	shift     []float64 // per-lane relative-value normalization shift
	tol       []float64
	resLo     []float64
	resHi     []float64
	lastWidth []float64
	stall     []int
	laneStart []int // global sweep index each lane's current solve began after

	tp []uint64 // packed transition program for the assembly sweep; see buildTransProgram
}

// NewBatch builds a batch of 1 to DenseBatchWidth lanes over c's compiled
// structure, resolving each lane's transition probabilities through the
// family law table exactly as Compiled.SetChainParams would. Fewer lanes
// are padded to DenseBatchWidth with idle lanes (see the file comment);
// NumLanes still reports len(lanes). NewBatch fails where the assembly
// sweep cannot run: off amd64, without AVX2, or at 2^26 states and more.
func NewBatch(c *Compiled, lanes []LaneParams) (*Batch, error) {
	if len(lanes) == 0 || len(lanes) > DenseBatchWidth {
		return nil, fmt.Errorf("kernel: batch has %d lanes, need 1 to %d", len(lanes), DenseBatchWidth)
	}
	for i, lp := range lanes {
		if lp.P < 0 || lp.P > 1 || math.IsNaN(lp.P) {
			return nil, fmt.Errorf("kernel: lane %d: adversary resource p = %v outside [0, 1]", i, lp.P)
		}
		if lp.Gamma < 0 || lp.Gamma > 1 || math.IsNaN(lp.Gamma) {
			return nil, fmt.Errorf("kernel: lane %d: switching probability gamma = %v outside [0, 1]", i, lp.Gamma)
		}
	}
	if err := asmCheck(c); err != nil {
		return nil, err
	}
	const k = DenseBatchWidth
	n := c.NumStates()
	b := &Batch{
		c:     c,
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
	c := b.c
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
		b.probs[t*DenseBatchWidth+ln] = float32(vals[mv&metaLawMask][sigma])
	}
}

// NumLanes returns the requested lane count (idle padding lanes are not
// counted).
func (b *Batch) NumLanes() int { return len(b.lanes) }

// NumStates returns the shared structure's state count.
func (b *Batch) NumStates() int { return b.c.NumStates() }

// SetWorkers sets the per-sweep goroutine count, with the same semantics
// as Compiled.SetWorkers; n <= 0 auto-sizes to the machine and the model
// (scaled by the lane width, since each state carries 8 lanes of work).
func (b *Batch) SetWorkers(n int) { b.workers = n }

func (b *Batch) sweepWorkers() int {
	if b.workers > 0 {
		return b.workers
	}
	return par.Grain(b.c.NumStates(), par.Workers(0), minStatesPerWorker/DenseBatchWidth)
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
// run with KeepValues set — the batched equivalent of Compiled.SetValues,
// with the same warm-start soundness argument.
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
	const k = DenseBatchWidth
	if cap(b.act) < k {
		b.act = make([]int, 0, k)
	}
	if need := chunks * k; cap(b.los) < need {
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

// LaneSolve is one solve request inside a batched run: the β defining the
// lane's reward view r_β, and the gain bracket width target (non-positive
// defaults to 1e-7, like Options.Tol). Algorithm 1 calibrates Tol per
// lane because the required gain resolution scales with the lane's block
// rate at (p, γ).
type LaneSolve struct {
	Beta float64
	Tol  float64
}

// BatchRunOptions tunes a batched run; fields are shared by every solve of
// every lane (the per-solve β and tolerance arrive via LaneSolve).
type BatchRunOptions struct {
	// SignOnly stops each lane solve as soon as its bracket excludes zero,
	// with the floor and stall semantics of Options.SignOnly.
	SignOnly bool
	// KeepValues starts every lane from its current vector (the previous
	// solve's result, or SetValues); lanes without one start from zero.
	KeepValues bool
}

// installSolve arms lane ln for a new solve starting after global sweep
// iter: it materializes the lane's β-view reward column (the same table
// rewardTable builds per lane), resets the lane's bracket and stall state,
// and re-bases the lane's sweep counter. The lane's value column is left
// in place — exactly the solo KeepValues chaining, where solve i+1 starts
// from solve i's converged vector.
func (b *Batch) installSolve(ln int, s LaneSolve, iter int, r *Result) {
	for idx := 0; idx < rwdTableSize; idx++ {
		ra := float64(idx >> (metaRAShift - metaRwdShift))
		rh := float64(idx & ((1 << (metaRAShift - metaRwdShift)) - 1))
		b.rwd[idx*DenseBatchWidth+ln] = ra - s.Beta*(ra+rh)
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
// Per sweep, each lane's value update, normalization shift, gain bracket
// and convergence test are computed independently with exactly the solo
// MeanPayoffCtx semantics (including SignOnly's exact-sign rule), so every
// lane's solve sequence — Results and value vectors alike — is bitwise
// identical to the solo chained solves at that lane's parameters and warm
// start (see the file comment). This asynchronous per-lane advancement
// keeps the batch dense: a lane that finishes a cheap solve immediately
// starts its next one instead of idling while slower lanes converge.
//
// The returned slice holds each lane's LAST solve result (zero Result for
// lanes never issued a solve). On a lane exhausting defaultMaxIter, the
// solo default sweep budget, partial results return with an error naming
// the first unconverged lane. ctx is checked once per sweep, exactly like
// the solo kernel: on cancellation the partial per-lane Results return
// alongside an error wrapping ctx.Err(), and each lane keeps its current
// vector for a later KeepValues resume.
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
	const k = DenseBatchWidth
	n := b.c.NumStates()
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

	// The sweep and shift closures are created once per run and read the
	// loop-carried variables (hv/nx swap, act) through their environment,
	// keeping the steady-state loop allocation-free. The assembly sweep
	// always computes all 8 lanes; retired and idle slots are write-only
	// from the batch's point of view (retired results were frozen by
	// unpack, idle lanes have none, and the shift and reductions below
	// only visit live lanes), so the extra arithmetic cannot perturb
	// anything — lanes never mix.
	var hv, nx []float64
	sweep := b.asmSweep(damping, &hv, &nx)
	shift := func(_, from, to int) {
		for s := from; s < to; s++ {
			ns := nx[s*k : s*k+k]
			for _, ln := range act {
				ns[ln] -= b.shift[ln]
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
		par.For(n, w, sweep)
		// Per-lane normalization: capture each lane's new state-0 value
		// before shifting, exactly like par.Shift(next, next[0], w).
		for _, ln := range act {
			b.shift[ln] = nx[ln]
		}
		par.For(n, w, shift)
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
			case r.Iters >= defaultMaxIter:
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
