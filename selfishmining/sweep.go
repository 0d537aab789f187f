package selfishmining

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/results"
	adaptive "repro/internal/sweep"
)

// attackSeriesName names one attack curve of a panel. The assembled figure
// and every streamed SweepPoint use this single naming, which is what lets
// stream consumers (like cmd/serve's NDJSON endpoint) match points to the
// summary's series by string equality. opts must be normalized.
func attackSeriesName(opts SweepOptions, cfg AttackConfig) string {
	if opts.Model == families.DefaultName {
		return fmt.Sprintf("ours(d=%d,f=%d)", cfg.Depth, cfg.Forks)
	}
	return fmt.Sprintf("%s(d=%d,f=%d)", opts.Model, cfg.Depth, cfg.Forks)
}

// AttackConfig names one (d, f) curve of the paper's Figure 2.
type AttackConfig struct {
	Depth, Forks int
}

// DefaultSweepMaxForkLen is the fork length bound SweepOptions.Normalize
// fills in for the fork family (the paper's l = 4).
const DefaultSweepMaxForkLen = 4

// Defaults of the adaptive refinement options (see SweepOptions.Adaptive),
// filled in by SweepOptions.Normalize.
const (
	// DefaultSweepTolerance is the refinement tolerance substituted when
	// an adaptive sweep leaves Tolerance unset.
	DefaultSweepTolerance = 1e-3
	// DefaultSweepMaxDepth is the bisection depth bound substituted when
	// an adaptive sweep leaves MaxDepth unset: each coarse cell splits
	// into at most 2^4 = 16 subcells.
	DefaultSweepMaxDepth = 4
)

// Figure2Configs are the five attack configurations evaluated in the paper.
var Figure2Configs = []AttackConfig{
	{Depth: 1, Forks: 1},
	{Depth: 2, Forks: 1},
	{Depth: 2, Forks: 2},
	{Depth: 3, Forks: 2},
	{Depth: 4, Forks: 2},
}

// SweepOptions configures a Figure-2-style parameter sweep for one γ. Zero
// values mean the documented defaults; Normalize fills them in and checks
// the whole request, and SweepContext normalizes before it runs.
type SweepOptions struct {
	// Model selects the attack-model family the attack curves are computed
	// over ("" means DefaultModel, the paper's fork model). The honest
	// baseline is included for every family; the single-tree baseline
	// series only accompanies the fork family (it is that figure's
	// comparator).
	Model string
	// Gamma is the switching probability of the sweep.
	Gamma float64
	// PGrid lists the adversary resource fractions (x-axis). Defaults to
	// 0..0.3 in steps of 0.01, as in the paper. An adaptive sweep
	// additionally requires the grid to be strictly increasing with at
	// least two points — it is the coarse grid refinement starts from.
	PGrid []float64
	// Configs lists the attack curves to compute. Defaults to
	// Figure2Configs for the fork family and to the family's default shape
	// otherwise.
	Configs []AttackConfig
	// MaxForkLen is the length bound l (default 4 for the fork family, as
	// in the paper; the family default shape's bound otherwise).
	MaxForkLen int
	// TreeWidth is the single-tree baseline width (default 5, as in the
	// paper; its depth equals MaxForkLen). A fork sweep needs a tree the
	// baseline explores: depth 1..8, width 1..31, and
	// (TreeWidth+1)^MaxForkLen·(MaxForkLen+1) ≤ 2^18.
	TreeWidth int
	// Epsilon is the per-point analysis precision (default 1e-4).
	Epsilon float64
	// Workers is the size of the worker pool the sweep's units — batched
	// groups of nearby grid points, or single points — are distributed
	// over; 0, the default, uses runtime.NumCPU(). Each attack structure is
	// compiled once and shared. The computed figure is bitwise identical at
	// every worker count.
	Workers int

	// Adaptive switches the sweep from the uniform grid to threshold-
	// refining bisection: PGrid is solved as a coarse pass, then cells
	// whose corner values disagree by more than Tolerance are recursively
	// bisected (up to MaxDepth) wherever the midpoint proves genuine
	// curvature — which concentrates solves around the profitability
	// threshold instead of spreading them uniformly. The figure's X axis
	// becomes the union of the coarse grid and every refined midpoint.
	// Refinement decisions depend only on solved values, never on timing
	// or caches, so adaptive figures inherit the bitwise-determinism
	// contract: every emitted point is bit-identical to the same point of
	// a uniform sweep. See internal/sweep for the cell tests.
	Adaptive bool
	// Tolerance is the adaptive refinement tolerance (default
	// DefaultSweepTolerance). A cell is left alone once every curve moves
	// by at most Tolerance across it, and recursion stops once midpoints
	// sit within Tolerance of their cell's secant — so the piecewise-
	// linear rendering of the refined curve is accurate to ~Tolerance.
	Tolerance float64
	// MaxDepth bounds the bisection depth of an adaptive sweep (default
	// DefaultSweepMaxDepth); each coarse cell splits into at most
	// 2^MaxDepth subcells.
	MaxDepth int
	// MaxPoints, when > 0, caps the refined (depth ≥ 1) x-values an
	// adaptive sweep may add, truncating deterministically in ascending-p
	// order once the budget runs out.
	MaxPoints int
	// Exhaustive, with Adaptive, bisects every cell to MaxDepth ignoring
	// the tolerance tests: the uniformly refined grid with bitwise the
	// same midpoint arithmetic as an adaptive run. It is the equal-
	// fidelity uniform reference cmd/bench and the property tests compare
	// adaptive runs against.
	Exhaustive bool
	// Resume carries completed points of an earlier identical sweep (a
	// job checkpoint). Points found here are emitted verbatim without
	// solving; the bitwise-determinism contract makes the resumed sweep
	// indistinguishable from an uninterrupted one. The checkpoint must
	// come from a sweep with the same Model, Gamma, MaxForkLen and
	// Epsilon — the sweep trusts its values verbatim.
	Resume *SweepCheckpoint

	// Progress, if non-nil, receives one line per completed point. Calls
	// are serialized, but their order across points follows the parallel
	// completion order.
	Progress func(format string, args ...any)
	// OnPoint, if non-nil, streams every attack-curve grid point as soon as
	// it completes — solved, coalesced, answered from the result cache, or
	// short-circuited (p = 0) — instead of only appearing in the final
	// figure. Calls are serialized but follow the parallel completion
	// order, and the points of one batched unit arrive together when the
	// unit finishes; the values streamed are exactly the values the final
	// figure will carry (bitwise — streaming changes delivery, never
	// results).
	// Adaptive sweeps instead emit deterministically: refinement proceeds
	// in waves (one per bisection depth), and within a wave points are
	// held back so they stream in task order — config-major, ascending p.
	// The callback runs on sweep worker goroutines and must return
	// promptly. Baseline series (honest, single-tree) are not streamed;
	// they arrive with the figure.
	OnPoint func(SweepPoint)
}

// SweepPoint is one completed attack-curve grid point of a streaming sweep
// (SweepOptions.OnPoint).
type SweepPoint struct {
	// Config is the attack configuration (d, f) the point belongs to, and
	// Series the name of the figure series that will carry it — the same
	// string SweepContext puts on the assembled panel, so streamed points
	// can be matched to the final figure without re-deriving the naming.
	Config AttackConfig
	Series string
	// PIndex is the point's index into SweepOptions.PGrid; P is the grid
	// value there and Gamma the sweep's switching probability. Refined
	// points of an adaptive sweep lie between grid entries and carry
	// PIndex = -1.
	PIndex int
	P      float64
	Gamma  float64
	// Depth is the point's bisection depth in an adaptive sweep: 0 for
	// coarse-grid points (and every point of a uniform sweep), 1..MaxDepth
	// for refined midpoints.
	Depth int
	// ERRev is the certified lower bound at this point, bitwise equal to
	// the final figure's value.
	ERRev float64
	// Sweeps reports the value-iteration sweeps the point's analysis
	// performed when it was first solved (0 for the p = 0 shortcut; the
	// originally recorded count when served from the result cache or a
	// resume checkpoint).
	Sweeps int
}

// SweepCheckpoint carries the completed points of an interrupted sweep so
// an identical re-run can skip their solves (SweepOptions.Resume). The
// jobs layer accumulates one from the OnPoint stream and persists it with
// the job; only Config, P, ERRev and Sweeps are consulted on resume.
type SweepCheckpoint struct {
	Points []SweepPoint
}

// sweepResumeKey indexes a resume checkpoint by attack configuration and
// the exact bit pattern of p — the bitwise contract is what makes exact
// float matching sound.
type sweepResumeKey struct {
	depth, forks int
	pbits        uint64
}

// resumePoints indexes a checkpoint for O(1) lookup; nil checkpoints give
// a nil (always-missing) map.
func resumePoints(ck *SweepCheckpoint) map[sweepResumeKey]SweepPoint {
	if ck == nil || len(ck.Points) == 0 {
		return nil
	}
	m := make(map[sweepResumeKey]SweepPoint, len(ck.Points))
	for _, pt := range ck.Points {
		if math.IsNaN(pt.P) {
			continue
		}
		m[sweepResumeKey{pt.Config.Depth, pt.Config.Forks, math.Float64bits(pt.P)}] = pt
	}
	return m
}

// Normalize fills every default of o and validates the result, so the
// options then say exactly what SweepContext will run. A zero number or an
// empty list means "default": Model "" becomes DefaultModel, a nil PGrid
// the paper's 0..0.3 grid in steps of 0.01, no Configs the family's
// default curves, and MaxForkLen, TreeWidth, Epsilon and — with Adaptive —
// Tolerance and MaxDepth their documented defaults. Normalize rejects an
// unknown Model, a Gamma outside [0, 1], negative or non-finite numbers,
// an empty PGrid, Tolerance, MaxDepth, MaxPoints or Exhaustive without
// Adaptive, an adaptive PGrid that is not strictly increasing with at
// least two points, a fork sweep whose single-tree baseline shape
// (depth MaxForkLen, width TreeWidth) the baseline does not explore, a
// config listed twice, and every (config, p) point the family rejects.
//
// Normalize is idempotent. SweepContext calls it before anything else, so
// the job, HTTP and CLI layers that call Normalize up front reject exactly
// the sweeps SweepContext would.
func (o *SweepOptions) Normalize() error {
	fam, err := families.Get(o.Model)
	if err != nil {
		return err
	}
	o.Model = fam.Name()
	if !(o.Gamma >= 0 && o.Gamma <= 1) {
		return fmt.Errorf("selfishmining: sweep gamma = %v outside [0, 1]", o.Gamma)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"epsilon", o.Epsilon}, {"tolerance", o.Tolerance}} {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("selfishmining: sweep %s = %v: need a finite value >= 0 (0 = default)", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"max fork length", o.MaxForkLen}, {"tree width", o.TreeWidth}, {"workers", o.Workers},
		{"max depth", o.MaxDepth}, {"max points", o.MaxPoints}} {
		if f.v < 0 {
			return fmt.Errorf("selfishmining: sweep %s = %d: need >= 0 (0 = default)", f.name, f.v)
		}
	}
	if !o.Adaptive && (o.Tolerance != 0 || o.MaxDepth != 0 || o.MaxPoints != 0 || o.Exhaustive) {
		return fmt.Errorf("selfishmining: sweep Tolerance, MaxDepth, MaxPoints and Exhaustive need Adaptive")
	}
	if o.PGrid == nil {
		o.PGrid = results.Grid(0, 0.3, 0.01)
	}
	if len(o.PGrid) == 0 {
		return fmt.Errorf("selfishmining: sweep has an empty p-grid")
	}
	d, f, l := fam.DefaultShape()
	isFork := o.Model == families.DefaultName
	if len(o.Configs) == 0 {
		o.Configs = []AttackConfig{{Depth: d, Forks: f}}
		if isFork {
			o.Configs = slices.Clone(Figure2Configs)
		}
	}
	if o.MaxForkLen == 0 {
		o.MaxForkLen = l
		if isFork {
			o.MaxForkLen = DefaultSweepMaxForkLen
		}
	}
	if o.TreeWidth == 0 {
		o.TreeWidth = 5
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-4
	}
	if o.Adaptive {
		if o.Tolerance == 0 {
			o.Tolerance = DefaultSweepTolerance
		}
		if o.MaxDepth == 0 {
			o.MaxDepth = DefaultSweepMaxDepth
		}
		if len(o.PGrid) < 2 {
			return fmt.Errorf("selfishmining: adaptive sweep needs a coarse grid of >= 2 points, got %d", len(o.PGrid))
		}
		for i := 1; i < len(o.PGrid); i++ {
			if !(o.PGrid[i] > o.PGrid[i-1]) {
				return fmt.Errorf("selfishmining: adaptive sweep grid must be strictly increasing, got p[%d] = %v after %v",
					i, o.PGrid[i], o.PGrid[i-1])
			}
		}
	}
	// Every fork panel carries the single-tree baseline of depth
	// MaxForkLen and width TreeWidth, so its shape must be one the
	// baseline explores.
	if isFork {
		if err := baseline.ValidateSingleTreeShape(o.MaxForkLen, o.TreeWidth); err != nil {
			return fmt.Errorf("selfishmining: sweep: %w", err)
		}
	}
	// A config listed twice would make two series of one name, which
	// neither the figure nor a resume checkpoint can tell apart.
	seen := make(map[AttackConfig]bool, len(o.Configs))
	for _, cfg := range o.Configs {
		if seen[cfg] {
			return fmt.Errorf("selfishmining: sweep lists config d=%d f=%d more than once", cfg.Depth, cfg.Forks)
		}
		seen[cfg] = true
	}
	// Validate every (config, p) grid point up front, so one bad point
	// cannot waste a partially solved panel. Adaptive midpoints lie
	// strictly between grid entries, and every family's validity region
	// in p is an interval, so validating the grid covers them too.
	for _, cfg := range o.Configs {
		for _, p := range o.PGrid {
			cp := core.Params{P: p, Gamma: o.Gamma, Depth: cfg.Depth, Forks: cfg.Forks, MaxLen: o.MaxForkLen}
			if err := fam.Validate(cp); err != nil {
				return fmt.Errorf("selfishmining: sweep point %v: %w", cp, err)
			}
		}
	}
	return nil
}

// SweepContext regenerates one panel of the paper's Figure 2: ERRev as a
// function of the adversary's resource p for the honest baseline, the
// single-tree baseline, and each requested attack configuration, at fixed
// γ.
//
// SweepContext runs through an ephemeral Service, so every call benefits
// from the serving layer's structure sharing (each attack structure is
// compiled once), warm starts (each grid point seeds value iteration from
// the nearest solved p) and lane batching (nearby grid points share one
// pass over the structure per sweep). Long-lived callers that sweep
// repeatedly should hold their own Service and call its SweepContext
// method, which additionally reuses results and structures across calls.
// The computed figure is bitwise identical at every worker count and cache
// state.
func SweepContext(ctx context.Context, opts SweepOptions) (*results.Figure, error) {
	return NewService(ServiceConfig{}).SweepContext(ctx, opts)
}

// SweepContext computes one Figure-2 panel through the service's caches:
// attack structures come from the structure cache, every grid point is
// answered from the result cache when possible, and fresh points
// warm-start from the nearest solved p. See the package-level SweepContext
// for the panel's contents.
//
// Fresh points are solved in units. Where a configuration batches — the
// machine's assembly dense sweep (kernel.DenseBatchAsm) and a structure
// within the per-lane size budget (see batches) — its points are cut, in
// ascending p, into units of kernel.DenseBatchWidth points, each solved
// as one multi-lane analysis over the shared structure; elsewhere every
// point is its own unit, solved alone and coalesced with identical
// in-flight points. Each lane is bitwise identical to the solo solve of
// its point, so batching changes scheduling and speed, never the figure.
//
// With opts.Adaptive the x-axis is refined around the profitability
// threshold instead of staying on the uniform grid: PGrid becomes the
// coarse pass, and cells that prove curvature beyond opts.Tolerance are
// recursively bisected. Refined midpoints warm-start from their just-
// solved neighbors, so deep refinement is much cheaper per point than the
// coarse pass.
//
// The figure is bitwise identical at every worker count and cache state:
// grid points are bound-only analyses, whose certified bracket depends
// only on exact sign decisions (see the Service determinism notes). The
// adaptive point set is likewise deterministic — refinement decisions
// depend only on solved values — and each of its points is bit-identical
// to the same (p, γ) point of a uniform sweep.
//
// ctx cancels the sweep: workers stop drawing new grid points, the point
// being solved stops at its next value-iteration sweep boundary, and the
// call returns a *CancelError (ErrCanceled). Completed points stay in the
// result and warm-start caches — they are full, untainted solves — so a
// re-run resumes from them and still produces the bitwise-identical
// panel. SweepOptions.OnPoint streams each completed point; points
// delivered before a cancellation are exactly the values the full panel
// would have carried, and a checkpoint built from them can skip their
// solves in a later run (SweepOptions.Resume).
func (s *Service) SweepContext(ctx context.Context, opts SweepOptions) (*results.Figure, error) {
	return s.sweepContext(ctx, opts, kernel.DenseBatchWidth)
}

// sweepContext is SweepContext with the unit width of batching
// configurations as a parameter; tests run width 1 (every point solo) as
// the reference the default width must match bit for bit.
func (s *Service) sweepContext(ctx context.Context, opts SweepOptions, width int) (*results.Figure, error) {
	if err := opts.Normalize(); err != nil {
		return nil, err
	}
	isFork := opts.Model == families.DefaultName
	if err := ctx.Err(); err != nil {
		return nil, s.countCancel(cancelError(err, nil))
	}
	workers := par.Workers(opts.Workers)
	if s.cfg.MaxConcurrent > 0 && workers > s.cfg.MaxConcurrent {
		workers = s.cfg.MaxConcurrent
	}
	progress := func(string, ...any) {}
	if opts.Progress != nil {
		var progressMu sync.Mutex
		progress = func(format string, args ...any) {
			progressMu.Lock()
			defer progressMu.Unlock()
			opts.Progress(format, args...)
		}
	}
	title := fmt.Sprintf("Expected relative revenue vs adversary resource (gamma=%g)", opts.Gamma)
	if !isFork {
		title = fmt.Sprintf("Expected relative revenue vs adversary resource (model=%s, gamma=%g)", opts.Model, opts.Gamma)
	}
	fig := &results.Figure{
		Title:  title,
		XLabel: "p",
		YLabel: "ERRev",
	}

	if opts.Adaptive {
		// Adaptive sweeps discover their x-axis, so the attack curves run
		// first and the baselines follow on the refined grid.
		res, err := s.sweepAdaptive(ctx, opts, workers, width, progress)
		if err != nil {
			return nil, s.countCancel(err)
		}
		fig.X = res.X
		if err := s.addBaselines(ctx, fig, res.X, opts, isFork); err != nil {
			return nil, s.countCancel(err)
		}
		progress("baselines done (gamma=%g, %d points)", opts.Gamma, len(res.X))
		for ci, cfg := range opts.Configs {
			if err := fig.AddSeries(attackSeriesName(opts, cfg), res.Values[ci]); err != nil {
				return nil, err
			}
		}
		return fig, nil
	}

	fig.X = opts.PGrid
	if err := s.addBaselines(ctx, fig, opts.PGrid, opts, isFork); err != nil {
		return nil, s.countCancel(err)
	}
	progress("baselines done (gamma=%g, %d points)", opts.Gamma, len(opts.PGrid))

	series, err := s.sweepConfigs(ctx, opts, workers, width, progress)
	if err != nil {
		return nil, s.countCancel(err)
	}
	for ci, cfg := range opts.Configs {
		if err := fig.AddSeries(attackSeriesName(opts, cfg), series[ci]); err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// addBaselines appends the honest series — and, for the fork family, the
// single-tree baseline — to fig, evaluated over xs. The single-tree chain
// of the sweep's shape is explored once and solved exactly at every x by
// one renewal-reward pass; ctx is checked between x values.
func (s *Service) addBaselines(ctx context.Context, fig *results.Figure, xs []float64, opts SweepOptions, isFork bool) error {
	honest := make([]float64, len(xs))
	for i, p := range xs {
		v, err := baseline.HonestERRev(p)
		if err != nil {
			return err
		}
		honest[i] = v
	}
	if err := fig.AddSeries("honest", honest); err != nil {
		return err
	}
	if !isFork {
		// The single-tree baseline accompanies the fork figure only — for
		// the singletree family it IS the curve.
		return nil
	}
	st, err := baseline.NewSingleTree(opts.MaxForkLen, opts.TreeWidth, baseline.PublishThreatened)
	if err != nil {
		return err
	}
	tree := make([]float64, len(xs))
	for i, p := range xs {
		if err := ctx.Err(); err != nil {
			return cancelError(err, nil)
		}
		if tree[i], err = st.ERRev(p, opts.Gamma); err != nil {
			return err
		}
	}
	return fig.AddSeries(fmt.Sprintf("single-tree(f=%d)", opts.TreeWidth), tree)
}

// sweepBases resolves each config's (d, f, l) structure once, in parallel
// across configs (cache hits return immediately; misses compile, at the
// grid's first point). The bases are structure-only: they decide which
// configs batch and serve as the donors of batched units, while solo
// points solve through analyze on instances of their own.
func (s *Service) sweepBases(opts SweepOptions, workers int) ([]*kernel.Compiled, error) {
	bases := make([]*kernel.Compiled, len(opts.Configs))
	structErrs := make([]error, len(opts.Configs))
	par.For(len(opts.Configs), workers, func(_, from, to int) {
		for ci := from; ci < to; ci++ {
			cfg := opts.Configs[ci]
			sk := structKey{opts.Model, cfg.Depth, cfg.Forks, opts.MaxForkLen}
			bases[ci], _, structErrs[ci] = s.structure(sk, opts.PGrid[0], opts.Gamma)
		}
	})
	for ci, err := range structErrs {
		if err != nil {
			return nil, fmt.Errorf("selfishmining: compiling d=%d f=%d: %w",
				opts.Configs[ci].Depth, opts.Configs[ci].Forks, err)
		}
	}
	return bases, nil
}

// gridTask is one (configuration, p) point a sweep pool must answer.
type gridTask struct {
	ci     int // index into opts.Configs
	wi     int // index into the batch's p slice (uniform sweeps: == pIndex)
	pIndex int // index into opts.PGrid, or -1 for adaptive refined points
	depth  int // bisection depth (0 for coarse and uniform points)
	p      float64
}

// solveTasks answers one wave of grid points. Points that need no solve —
// the p = 0 shortcut, the resume checkpoint, and for configurations that
// batch (see batches) the result cache — are answered first. Each
// configuration's remaining points are then cut, in task order (ascending
// p), into units: `width` points when the configuration batches, one point
// otherwise. All units run on one worker pool: a one-point unit is a solo
// sweepPoint request, which looks up the result cache itself and coalesces
// with identical in-flight points; a longer one is a single multi-lane
// sweepBatch solve. onDone runs exactly once per task, serialized under
// one mutex, in completion order; ctx stops workers from drawing new units
// and interrupts the ones being solved at their next sweep boundary.
func (s *Service) solveTasks(ctx context.Context, opts SweepOptions, bases []*kernel.Compiled, workers, width int,
	resume map[sweepResumeKey]SweepPoint, tasks []gridTask, onDone func(ti int, errev float64, sweeps int)) error {
	var doneMu sync.Mutex
	done := func(ti int, errev float64, sweeps int) {
		doneMu.Lock()
		defer doneMu.Unlock()
		onDone(ti, errev, sweeps)
	}
	unitLen := make([]int, len(opts.Configs))
	for ci := range unitLen {
		unitLen[ci] = 1
		if batches(bases[ci]) {
			unitLen[ci] = width
		}
	}
	pending := make([][]int, len(opts.Configs))
	for ti, tk := range tasks {
		if err := ctx.Err(); err != nil {
			return cancelError(err, nil)
		}
		cfg := opts.Configs[tk.ci]
		if tk.p == 0 {
			done(ti, 0, 0) // no resource, no revenue; the p=0 MDP is degenerate
			continue
		}
		if pt, ok := resume[sweepResumeKey{cfg.Depth, cfg.Forks, math.Float64bits(tk.p)}]; ok {
			// Checkpointed by an earlier run of this same sweep: the bitwise
			// contract lets the recorded value stand in for the solve verbatim.
			done(ti, pt.ERRev, pt.Sweeps)
			continue
		}
		if unitLen[tk.ci] > 1 {
			params, pointCfg := pointRequest(opts, cfg, tk.p)
			if a, ok := s.results.Get(s.key(params, &pointCfg)); ok {
				s.sweepPoints.Add(1)
				done(ti, a.ERRev, a.Sweeps)
				continue
			}
		}
		pending[tk.ci] = append(pending[tk.ci], ti)
	}
	var units [][]int
	for ci, idxs := range pending {
		for len(idxs) > 0 {
			u := min(unitLen[ci], len(idxs))
			units = append(units, idxs[:u])
			idxs = idxs[u:]
		}
	}
	if len(units) == 0 {
		return nil
	}
	errs := make([]error, len(units))
	poolSize := min(workers, len(units))
	var cursor atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < poolSize; w++ {
		// Split the worker budget: the pool takes the outer (unit) level;
		// any leftover cores deepen the per-solve sweep parallelism, with
		// the remainder spread so no core idles. Neither split affects
		// results.
		innerWorkers := splitWorkers(workers, poolSize, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				ui := int(cursor.Add(1)) - 1
				if ui >= len(units) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[ui] = cancelError(err, nil)
					failed.Store(true)
					return
				}
				unit := units[ui]
				ci := tasks[unit[0]].ci
				cfg := opts.Configs[ci]
				if len(unit) > 1 {
					ps := make([]float64, len(unit))
					for i, ti := range unit {
						ps[i] = tasks[ti].p
					}
					as, err := s.sweepBatch(ctx, bases[ci], cfg, ps, opts, innerWorkers)
					if err != nil {
						errs[ui] = fmt.Errorf("selfishmining: sweeping d=%d f=%d (batch of %d): %w", cfg.Depth, cfg.Forks, len(unit), err)
						failed.Store(true)
						return
					}
					for i, ti := range unit {
						done(ti, as[i].ERRev, as[i].Sweeps)
					}
					continue
				}
				p := tasks[unit[0]].p
				a, err := s.sweepPoint(ctx, opts, cfg, p, innerWorkers)
				if err != nil {
					errs[ui] = fmt.Errorf("selfishmining: sweeping d=%d f=%d: p=%g: %w", cfg.Depth, cfg.Forks, p, err)
					failed.Store(true)
					return
				}
				done(unit[0], a.ERRev, a.Sweeps)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// splitWorkers apportions a worker budget over a pool: slot w of poolSize
// gets workers/poolSize cores, with the remainder spread over the first
// workers%poolSize slots — so 8 workers over 3 slots split 3/3/2 instead
// of stranding two cores on a uniform 2/2/2. Worker counts never change
// results, so any split is sound; this one just wastes nothing.
func splitWorkers(workers, poolSize, w int) int {
	base := workers / poolSize
	if w < workers%poolSize {
		base++
	}
	return max(base, 1)
}

// batchLaneBudget bounds the per-lane data of a batching configuration:
// two lanes must fit an 8 MiB cache share. Every Figure-2 shape up to fork
// d2f2l5 (0.38 MiB per lane) fits. Fork d3f2l4 (9.5 MiB per lane) does
// not, and its two-point panel solved as a padded 8-lane unit took as
// long as solo (2.89 vs 2.88 s on a 2-vCPU host) at 200 instead of 111
// MiB peak, so it solves solo.
const batchLaneBudget = 4 << 20

// laneBytes is the data one batch lane adds over base's shared structure:
// a float32 probability per transition and two float64 values per state.
func laneBytes(base *kernel.Compiled) int64 {
	return base.NumTransitions()*4 + int64(base.NumStates())*16
}

// batches reports whether a configuration's fresh points are solved in
// multi-lane units. Both conditions are needed for a batch to beat solo
// solves: the machine must run the assembly batch sweep, which does the
// work of 4.2 to 7.3 solo sweeps per pass on the Figure-2 shapes and is
// the only batch sweep (kernel.NewBatch fails without it), and the
// structure must fit batchLaneBudget per lane, far below the sweep's
// 2^26-state limit.
func batches(base *kernel.Compiled) bool {
	return kernel.DenseBatchAsm() && laneBytes(base) <= batchLaneBudget
}

// pointRequest is the analysis request of one (configuration, p) sweep
// point: a bound-only analysis at the sweep's ε. Solo and batched solves
// of a point share its result-cache entry (they are bitwise identical, so
// sharing is sound). opts must be normalized.
func pointRequest(opts SweepOptions, cfg AttackConfig, p float64) (AttackParams, config) {
	params := AttackParams{
		Model:     opts.Model,
		Adversary: p, Switching: opts.Gamma,
		Depth: cfg.Depth, Forks: cfg.Forks, MaxForkLen: opts.MaxForkLen,
	}
	return params, config{epsilon: opts.Epsilon, boundOnly: true, skipEval: true}
}

// sweepConfigs computes the attack curves of a uniform-grid panel with a
// worker pool over all (configuration, p) points. Completed points are
// streamed through opts.OnPoint (serialized) as they finish.
func (s *Service) sweepConfigs(ctx context.Context, opts SweepOptions, workers, width int, progress func(string, ...any)) ([][]float64, error) {
	bases, err := s.sweepBases(opts, workers)
	if err != nil {
		return nil, err
	}
	tasks := make([]gridTask, 0, len(opts.Configs)*len(opts.PGrid))
	for ci := range opts.Configs {
		for pi, p := range opts.PGrid {
			tasks = append(tasks, gridTask{ci: ci, wi: pi, pIndex: pi, p: p})
		}
	}
	out := make([][]float64, len(opts.Configs))
	for ci := range out {
		out[ci] = make([]float64, len(opts.PGrid))
	}
	resume := resumePoints(opts.Resume)
	err = s.solveTasks(ctx, opts, bases, workers, width, resume, tasks, func(ti int, errev float64, sweeps int) {
		tk := tasks[ti]
		cfg := opts.Configs[tk.ci]
		out[tk.ci][tk.pIndex] = errev
		if opts.OnPoint != nil {
			opts.OnPoint(SweepPoint{
				Config: cfg, Series: attackSeriesName(opts, cfg),
				PIndex: tk.pIndex, P: tk.p, Gamma: opts.Gamma,
				ERRev: errev, Sweeps: sweeps,
			})
		}
		if tk.p != 0 {
			progress("d=%d f=%d p=%.2f gamma=%g: ERRev=%.5f (%d sweeps)",
				cfg.Depth, cfg.Forks, tk.p, opts.Gamma, errev, sweeps)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sweepAdaptive computes the attack curves of an adaptive panel: the
// refinement engine decides which points exist, wave by wave, and each
// wave is solved over the same worker pool (and caches) uniform sweeps
// use. Refined midpoints warm-start from their freshly solved neighbors
// through the service's warm-start cache — the solved corners of a cell
// are exactly the nearest-p vectors when its midpoint solves.
//
// Emission is deterministic: within a wave, completed points are held
// back until every earlier task of the wave (config-major, ascending p)
// has finished, so the OnPoint stream — and any checkpoint built from a
// prefix of it — is reproducible point for point.
func (s *Service) sweepAdaptive(ctx context.Context, opts SweepOptions, workers, width int, progress func(string, ...any)) (*adaptive.Result, error) {
	bases, err := s.sweepBases(opts, workers)
	if err != nil {
		return nil, err
	}
	resume := resumePoints(opts.Resume)
	solve := func(ps []float64, depth int) ([][]float64, error) {
		tasks := make([]gridTask, 0, len(ps)*len(opts.Configs))
		for ci := range opts.Configs {
			for wi, p := range ps {
				pIndex := -1
				if depth == 0 {
					pIndex = wi // the coarse wave IS the requested grid
				}
				tasks = append(tasks, gridTask{ci: ci, wi: wi, pIndex: pIndex, depth: depth, p: p})
			}
		}
		vals := make([][]float64, len(opts.Configs))
		for ci := range vals {
			vals[ci] = make([]float64, len(ps))
		}
		pts := make([]SweepPoint, len(tasks))
		completed := make([]bool, len(tasks))
		frontier := 0
		err := s.solveTasks(ctx, opts, bases, workers, width, resume, tasks, func(ti int, errev float64, sweeps int) {
			tk := tasks[ti]
			cfg := opts.Configs[tk.ci]
			vals[tk.ci][tk.wi] = errev
			pts[ti] = SweepPoint{
				Config: cfg, Series: attackSeriesName(opts, cfg),
				PIndex: tk.pIndex, P: tk.p, Gamma: opts.Gamma, Depth: tk.depth,
				ERRev: errev, Sweeps: sweeps,
			}
			completed[ti] = true
			for frontier < len(tasks) && completed[frontier] {
				pt := pts[frontier]
				if opts.OnPoint != nil {
					opts.OnPoint(pt)
				}
				if pt.P != 0 {
					progress("d=%d f=%d p=%g gamma=%g depth=%d: ERRev=%.5f (%d sweeps)",
						pt.Config.Depth, pt.Config.Forks, pt.P, opts.Gamma, pt.Depth, pt.ERRev, pt.Sweeps)
				}
				frontier++
			}
		})
		if err != nil {
			return nil, err
		}
		return vals, nil
	}
	res, err := adaptive.Refine(adaptive.Options{
		Grid:      opts.PGrid,
		Configs:   len(opts.Configs),
		Tolerance: opts.Tolerance,
		MaxDepth:  opts.MaxDepth,
		MaxPoints: opts.MaxPoints,
		Force:     opts.Exhaustive,
	}, solve)
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		progress("refinement budget exhausted after %d refined points (max %d)", res.Refined, opts.MaxPoints)
	}
	progress("adaptive refinement done: %d x-values (%d coarse + %d refined)",
		len(res.X), len(opts.PGrid), res.Refined)
	return res, nil
}

// sweepPoint answers one grid point solo, through the same analyze path
// as AnalyzeContext: from the result cache, coalesced with an identical
// in-flight point, or solved fresh on `workers` sweep goroutines under the
// service's MaxConcurrent limit, seeded from the nearest solved p. A
// cancellation interrupts the solve at its next sweep boundary and stores
// nothing.
func (s *Service) sweepPoint(ctx context.Context, opts SweepOptions, cfg AttackConfig, p float64, workers int) (*Analysis, error) {
	s.sweepPoints.Add(1)
	params, pointCfg := pointRequest(opts, cfg, p)
	pointCfg.workers = workers
	a, info, err := s.analyze(ctx, params, &pointCfg)
	if err == nil && info == (AnalyzeInfo{}) {
		batchSoloPoints.Inc()
	}
	return a, err
}

// sweepBatch answers one multi-point unit: len(ps) same-configuration
// points solved in a single multi-lane bound-only analysis over base's
// shared structure (which it only reads), occupying one MaxConcurrent slot
// for the whole unit. Each lane seeds from the warm-start cache and is
// bitwise identical to the solo sweepPoint solve at that (p, γ), so the
// lanes populate the solo path's result-cache entries and warm-start
// neighborhoods. Unlike sweepPoint, lanes are not singleflight-coalesced:
// the scheduler filters cached points before cutting units, and a
// concurrent identical sweep merely duplicates work, never diverges
// results.
func (s *Service) sweepBatch(ctx context.Context, base *kernel.Compiled, cfg AttackConfig, ps []float64,
	opts SweepOptions, workers int) ([]*Analysis, error) {
	s.sweepPoints.Add(uint64(len(ps)))
	batchGroupsScheduled.Inc()
	batchGroupLanes.Add(uint64(len(ps)))
	if err := s.acquire(ctx); err != nil {
		return nil, cancelError(err, nil)
	}
	defer s.release()
	sk := structKey{opts.Model, cfg.Depth, cfg.Forks, opts.MaxForkLen}
	n := base.NumStates()
	lanes := make([]analysis.BatchLane, len(ps))
	for i, p := range ps {
		lanes[i] = analysis.BatchLane{P: p, Gamma: opts.Gamma}
		if seed, ok := s.warmSeed(sk, opts.Gamma, p, n); ok {
			lanes[i].InitialValues = seed
		}
	}
	s.solves.Add(uint64(len(ps)))
	lrs, err := analysis.AnalyzeBatch(ctx, base, lanes, analysis.Options{
		Epsilon: opts.Epsilon, SkipStrategyEval: true, SkipStrategy: true, Workers: workers,
	})
	if err != nil {
		return nil, cancelError(err, nil)
	}
	out := make([]*Analysis, len(ps))
	for i, lr := range lrs {
		s.warmPutVec(sk, opts.Gamma, ps[i], n, lr.Values)
		params, pointCfg := pointRequest(opts, cfg, ps[i])
		a, err := newAnalysis(params, &lr.Result, false, n)
		if err != nil {
			return nil, err
		}
		s.results.Add(s.key(params, &pointCfg), a)
		out[i] = a
	}
	return out, nil
}
