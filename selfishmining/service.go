package selfishmining

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/families"
)

// Default sizing of a Service's caches. All are entry counts; memory per
// entry depends on the model size (see ServiceConfig.MaxCachedStates).
const (
	DefaultResultCacheSize    = 4096
	DefaultStructureCacheSize = 8
	DefaultWarmCacheSize      = 64
	DefaultMaxCachedStates    = 4 << 20

	// warmPointsPerStore bounds the value vectors retained per
	// (structure, γ) neighborhood; nearest-p lookup scans them linearly.
	warmPointsPerStore = 4
)

// ServiceConfig sizes and tunes a Service. The zero value gives sensible
// serving defaults; negative cache sizes disable the respective cache.
type ServiceConfig struct {
	// ResultCacheSize bounds the solved-analysis LRU (default 4096
	// entries). Full results retain their strategy, so entries for an
	// n-state model cost O(n) memory; see MaxCachedStates.
	ResultCacheSize int
	// StructureCacheSize bounds the compiled-structure LRU keyed by
	// (Model, Depth, Forks, MaxForkLen) — distinct (p, γ) points share one
	// families.Compile and only re-derive probabilities (default 8
	// entries).
	StructureCacheSize int
	// WarmCacheSize bounds the warm-start LRU of (structure, γ)
	// neighborhoods, each holding up to a handful of converged value
	// vectors used to seed bound-only solves at nearby p (default 64).
	// Negative disables warm starts.
	WarmCacheSize int
	// MaxCachedStates is the model size (in states) above which full
	// results and warm-start vectors are not retained — the solve still
	// runs, is coalesced, and benefits from the structure cache, but its
	// O(states) payload is handed to the caller only. Default 4Mi states.
	// Bound-only results are always cacheable (they are O(1)).
	MaxCachedStates int
	// Workers is the default per-solve sweep parallelism (see
	// WithWorkers); a per-call WithWorkers overrides it. Worker counts
	// never change results, so they are not part of cache keys.
	Workers int
	// MaxConcurrent bounds the number of solves executing at once across
	// Analyze, AnalyzeBatch and Sweep (0 = unlimited). Queued requests
	// wait; coalesced and cached requests do not consume a slot.
	MaxConcurrent int
}

func (c *ServiceConfig) defaults() {
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = DefaultResultCacheSize
	}
	if c.StructureCacheSize == 0 {
		c.StructureCacheSize = DefaultStructureCacheSize
	}
	if c.WarmCacheSize == 0 {
		c.WarmCacheSize = DefaultWarmCacheSize
	}
	if c.MaxCachedStates == 0 {
		c.MaxCachedStates = DefaultMaxCachedStates
	}
}

// structKey identifies a compiled transition structure: the model family
// and everything of AttackParams except the chain parameters (p, γ), which
// the structure is reused across.
type structKey struct {
	model                string
	depth, forks, maxLen int
}

// resultKey canonically identifies one solved analysis: the model family,
// the attack point, and every option that can change the result. Worker
// counts are absent by design — results are bitwise identical at any
// parallelism — and so are checkpoint sinks and resume seeds: a resumed
// solve reproduces the uninterrupted result float for float, so it shares
// the cold solve's cache entry.
type resultKey struct {
	model                string
	p, gamma             float64
	depth, forks, maxLen int
	epsilon              float64
	maxIter              int
	skipEval             bool
	boundOnly            bool
}

// warmKey addresses one warm-start neighborhood: value vectors transfer
// across p (and β) but not across model families, structures or γ (the
// family rides in via structKey).
type warmKey struct {
	sk    structKey
	gamma float64
}

// warmStore holds up to warmPointsPerStore converged value vectors of one
// neighborhood. Vectors are immutable once stored.
type warmStore struct {
	mu     sync.Mutex
	points []warmPoint
}

type warmPoint struct {
	p      float64
	values []float64
}

// nearest returns the stored vector whose p is closest to the query.
func (w *warmStore) nearest(p float64) ([]float64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	best := -1
	for i := range w.points {
		if best < 0 || math.Abs(w.points[i].p-p) < math.Abs(w.points[best].p-p) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	return w.points[best].values, true
}

// put stores values for p, replacing an existing entry at the same p, or —
// when the store is full — the entry farthest from p, keeping the
// neighborhood local to the sweep's moving frontier.
func (w *warmStore) put(p float64, values []float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.points {
		if w.points[i].p == p {
			w.points[i].values = values
			return
		}
	}
	if len(w.points) < warmPointsPerStore {
		w.points = append(w.points, warmPoint{p, values})
		return
	}
	far := 0
	for i := range w.points {
		if math.Abs(w.points[i].p-p) > math.Abs(w.points[far].p-p) {
			far = i
		}
	}
	w.points[far] = warmPoint{p, values}
}

// Service is the caching, request-coalescing serving layer over the
// analysis pipeline. It answers AnalyzeContext, AnalyzeBatchContext and
// SweepContext through three cooperating caches:
//
//   - a result LRU keyed by the model family, the canonicalized attack
//     parameters and the analysis options, so repeated queries cost a map
//     lookup;
//   - a structure LRU keyed by (Model, Depth, Forks, MaxForkLen), so
//     distinct (p, γ) points share one expensive compilation and only
//     re-resolve transition probabilities;
//   - a warm-start LRU of converged value vectors, seeding bound-only
//     solves from the nearest solved p to cut sweeps on fine grids.
//
// Concurrent identical requests are coalesced into a single solve
// (singleflight), and MaxConcurrent bounds the solves in flight. Every
// request is governed by its caller's context end to end: queued and
// coalesced waiters unblock the moment their own context ends (without
// disturbing the leader's solve or the caches), solves stop cooperatively
// at value-iteration sweep boundaries, and interruptions surface as
// *CancelError (ErrCanceled) tallied in Stats.
//
// # Determinism
//
// Results are bitwise identical regardless of cache state, warm starts,
// coalescing and worker counts. Cache hits replay stored results verbatim;
// warm starts are confined to sign-only binary-search solves, which iterate
// until the gain's sign is certified and therefore make the exact same
// decisions from any starting vector; and full analyses (which extract a
// strategy) always solve cold. The one exception is the Sweeps performance
// counter of bound-only results, which reports the work actually done and
// so shrinks as the warm cache fills.
//
// Analyses handed out by a Service may share their Strategy slice with the
// cache; treat it as read-only. Simulate and Profile are safe on concurrent
// copies.
type Service struct {
	cfg ServiceConfig

	results    *cache.LRU[resultKey, *Analysis]
	structures *cache.LRU[structKey, *core.Compiled]
	warm       *cache.LRU[warmKey, *warmStore]

	flight       cache.Group[resultKey, *Analysis]
	structFlight cache.Group[structKey, *core.Compiled]

	sem chan struct{}

	solves, compiles               atomic.Uint64
	warmHits, warmMisses, warmPuts atomic.Uint64
	sweepPoints                    atomic.Uint64
	canceled, deadline             atomic.Uint64
}

// NewService builds a Service with the given configuration (zero value =
// defaults).
func NewService(cfg ServiceConfig) *Service {
	cfg.defaults()
	s := &Service{
		cfg:        cfg,
		results:    cache.NewLRU[resultKey, *Analysis](max(cfg.ResultCacheSize, 0)),
		structures: cache.NewLRU[structKey, *core.Compiled](max(cfg.StructureCacheSize, 0)),
		warm:       cache.NewLRU[warmKey, *warmStore](max(cfg.WarmCacheSize, 0)),
	}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return s
}

// AnalyzeInfo reports how a request was served.
type AnalyzeInfo struct {
	// Cached: answered from the result cache without any solving.
	Cached bool
	// Coalesced: answered by an identical concurrent request's solve.
	Coalesced bool
}

// Analyze is AnalyzeContext under context.Background().
//
// Deprecated: use AnalyzeContext, the canonical v2 entry point, which adds
// cancellation, deadlines and partial-progress errors. Analyze remains a
// thin wrapper and computes bit-identical results.
func (s *Service) Analyze(p AttackParams, opts ...Option) (*Analysis, error) {
	return s.AnalyzeContext(context.Background(), p, opts...)
}

// AnalyzeContext runs (or replays) the fully automated analysis for one
// attack configuration. Options mirror the package-level AnalyzeContext,
// and a fresh solve returns bitwise the package-level result.
//
// ctx governs the whole request: a cancellation or deadline unblocks it
// promptly whether it is solving (checked at sweep boundaries), queued on
// the MaxConcurrent limit, or coalesced behind an identical in-flight
// request — a canceled follower stops waiting without disturbing the
// leader's solve, and a canceled solve stores nothing, so the caches are
// never poisoned by interruptions. Interrupted requests return a
// *CancelError (ErrCanceled) and are tallied in Stats as Canceled or
// DeadlineExceeded, never as Solves.
func (s *Service) AnalyzeContext(ctx context.Context, p AttackParams, opts ...Option) (*Analysis, error) {
	a, _, err := s.AnalyzeDetailedContext(ctx, p, opts...)
	return a, err
}

// AnalyzeDetailed is AnalyzeDetailedContext under context.Background().
//
// Deprecated: use AnalyzeDetailedContext, which adds cancellation and
// deadlines; this wrapper computes bit-identical results.
func (s *Service) AnalyzeDetailed(p AttackParams, opts ...Option) (*Analysis, AnalyzeInfo, error) {
	return s.AnalyzeDetailedContext(context.Background(), p, opts...)
}

// AnalyzeDetailedContext is AnalyzeContext plus serving metadata, for
// callers (like cmd/serve) that surface cache behavior.
func (s *Service) AnalyzeDetailedContext(ctx context.Context, p AttackParams, opts ...Option) (*Analysis, AnalyzeInfo, error) {
	cfg := config{epsilon: 1e-4}
	for _, o := range opts {
		o(&cfg)
	}
	// A NaN epsilon would both disable the binary search (every comparison
	// is false) and poison the map keys below: NaN never compares equal,
	// so singleflight entries could never be deleted again.
	if math.IsNaN(cfg.epsilon) || math.IsInf(cfg.epsilon, 0) {
		return nil, AnalyzeInfo{}, fmt.Errorf("selfishmining: epsilon = %v is not a finite precision", cfg.epsilon)
	}
	cp := p.core()
	if err := p.Validate(); err != nil {
		return nil, AnalyzeInfo{}, err
	}
	key := s.key(p, &cfg)
	for {
		if a, ok := s.results.Get(key); ok {
			return a.clone(), AnalyzeInfo{Cached: true}, nil
		}
		a, err, shared := s.flight.DoContext(ctx, key, func() (*Analysis, error) {
			return s.solve(ctx, key, p, cp, &cfg)
		})
		if err != nil {
			// A follower can inherit a cancellation that belongs to the
			// LEADER's context (the leader's deadline fired mid-solve).
			// This request's own context is what governs it: while that
			// is still live, retry — the dead flight entry is gone, so
			// the retry solves as a fresh leader (or coalesces behind a
			// healthier one). Genuine solver errors are shared as-is.
			if shared && isCtxErr(err) && ctx.Err() == nil {
				continue
			}
			return nil, AnalyzeInfo{Coalesced: shared}, s.countCancel(cancelError(err, nil))
		}
		return a.clone(), AnalyzeInfo{Coalesced: shared}, nil
	}
}

// countCancel tallies a request-ending context interruption in the serving
// counters and passes err through for the caller to return.
func (s *Service) countCancel(err error) error {
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		s.deadline.Add(1)
	case errors.Is(err, context.Canceled):
		s.canceled.Add(1)
	}
	return err
}

// key canonicalizes a request so that equivalent requests collide: the
// empty model name maps to the default family, negative zeros are
// normalized, and out-of-range option values are replaced by the defaults
// the solver would substitute anyway.
func (s *Service) key(p AttackParams, cfg *config) resultKey {
	model := p.Model
	if model == "" {
		model = families.DefaultName
	}
	k := resultKey{
		model: model,
		p:     p.Adversary, gamma: p.Switching,
		depth: p.Depth, forks: p.Forks, maxLen: p.MaxForkLen,
		epsilon:   cfg.epsilon,
		maxIter:   cfg.maxIter,
		skipEval:  cfg.skipEval || cfg.boundOnly,
		boundOnly: cfg.boundOnly,
	}
	if k.p == 0 {
		k.p = 0 // collapse -0.0 onto +0.0
	}
	if k.gamma == 0 {
		k.gamma = 0
	}
	if k.epsilon <= 0 {
		k.epsilon = 1e-4 // the analysis default for non-positive ε
	}
	if k.maxIter <= 0 {
		k.maxIter = 0 // all non-positive budgets mean "solver default"
	}
	return k
}

// structure returns the shared compiled structure for sk, compiling it at
// most once across all concurrent requests. The returned instance is a
// clone source only and is never solved on directly.
func (s *Service) structure(sk structKey) (*core.Compiled, error) {
	if c, ok := s.structures.Get(sk); ok {
		return c, nil
	}
	c, err, _ := s.structFlight.Do(sk, func() (*core.Compiled, error) {
		if c, ok := s.structures.Get(sk); ok {
			return c, nil
		}
		s.compiles.Add(1)
		// Chain parameters are placeholders: every solver clone installs
		// its own (p, γ) via SetChainParams before solving.
		comp, err := families.Compile(sk.model, core.Params{
			P: 0.1, Gamma: 0.5,
			Depth: sk.depth, Forks: sk.forks, MaxLen: sk.maxLen,
		})
		if err != nil {
			return nil, err
		}
		s.structures.Add(sk, comp)
		return comp, nil
	})
	return c, err
}

// solver clones the shared structure for sk and points it at (p, γ) with
// the effective worker count.
func (s *Service) solver(sk structKey, p, gamma float64, workers int) (*core.Compiled, error) {
	base, err := s.structure(sk)
	if err != nil {
		return nil, err
	}
	comp := base.Clone()
	if workers == 0 {
		workers = s.cfg.Workers
	}
	comp.SetWorkers(workers)
	if err := comp.SetChainParams(p, gamma); err != nil {
		return nil, err
	}
	return comp, nil
}

// solve is the singleflight leader body for one AnalyzeContext request.
// Nothing is cached on failure, so an interrupted solve cannot poison the
// result or warm-start caches.
func (s *Service) solve(ctx context.Context, key resultKey, p AttackParams, cp core.Params, cfg *config) (*Analysis, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, cancelError(err, nil)
	}
	defer s.release()
	sk := structKey{key.model, p.Depth, p.Forks, p.MaxForkLen}
	comp, err := s.solver(sk, p.Adversary, p.Switching, cfg.workers)
	if err != nil {
		return nil, err
	}
	aOpts := analysis.Options{
		Epsilon:          cfg.epsilon,
		SolverMaxIter:    cfg.maxIter,
		SkipStrategyEval: cfg.skipEval,
		SkipStrategy:     cfg.boundOnly,
		Progress:         cfg.progress,
	}
	cfg.analysisCheckpointOpts(&aOpts)
	if cfg.boundOnly && cfg.resume == nil {
		// Warm starts are confined to bound-only analyses: a full analysis
		// extracts its strategy from the final value vector, which a seed
		// would perturb in the low bits; the bound is seed-independent. A
		// resumed request carries its own seed — the checkpoint's vector,
		// which the resume guarantee requires verbatim.
		if seed, ok := s.warmSeed(sk, p.Switching, p.Adversary, comp.NumStates()); ok {
			aOpts.InitialValues = seed
		}
	}
	s.solves.Add(1)
	res, err := analysis.Analyze(ctx, comp, aOpts)
	if err != nil {
		return nil, analysisError(p, res, err)
	}
	s.warmPut(sk, p.Switching, p.Adversary, comp)
	a, err := newAnalysis(p, cp, res, !cfg.boundOnly && p.isFork(), comp.NumStates())
	if err != nil {
		return nil, err
	}
	if cfg.boundOnly || comp.NumStates() <= s.cfg.MaxCachedStates {
		s.results.Add(key, a)
	}
	return a, nil
}

// warmSeed returns the cached value vector nearest to p for (sk, γ).
func (s *Service) warmSeed(sk structKey, gamma, p float64, n int) ([]float64, bool) {
	store, ok := s.warm.Get(warmKey{sk, gamma})
	if !ok {
		s.warmMisses.Add(1)
		return nil, false
	}
	seed, ok := store.nearest(p)
	if !ok || len(seed) != n {
		s.warmMisses.Add(1)
		return nil, false
	}
	s.warmHits.Add(1)
	return seed, true
}

// warmPut retains comp's converged value vector as a future seed, unless
// the model is too large or warm starts are disabled.
func (s *Service) warmPut(sk structKey, gamma, p float64, comp *core.Compiled) {
	if s.cfg.WarmCacheSize < 0 || comp.NumStates() > s.cfg.MaxCachedStates {
		return
	}
	s.warmPutVec(sk, gamma, p, comp.NumStates(), comp.Values())
}

// warmPutVec retains an explicit converged value vector as a future seed —
// the batched sweep path hands lane vectors here directly, since they live
// on the kernel batch rather than on a Compiled. The vector must not be
// mutated after the call (warmStore vectors are immutable once stored).
func (s *Service) warmPutVec(sk structKey, gamma, p float64, n int, values []float64) {
	if s.cfg.WarmCacheSize < 0 || n > s.cfg.MaxCachedStates || len(values) != n {
		return
	}
	// GetOrAdd keeps two racing solves of the same neighborhood from each
	// installing a store and losing the other's vector.
	store, _ := s.warm.GetOrAdd(warmKey{sk, gamma}, &warmStore{})
	store.put(p, values)
	s.warmPuts.Add(1)
}

// acquire takes a MaxConcurrent slot, or returns ctx.Err() as soon as the
// caller's context ends while queued — a waiting request never burns a slot
// it no longer wants.
func (s *Service) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.sem == nil {
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Service) release() {
	if s.sem != nil {
		<-s.sem
	}
}

// AnalyzeBatch is AnalyzeBatchContext under context.Background().
//
// Deprecated: use AnalyzeBatchContext, which adds cancellation and
// deadlines; this wrapper computes bit-identical results.
func (s *Service) AnalyzeBatch(reqs []AttackParams, opts ...Option) ([]*Analysis, error) {
	return s.AnalyzeBatchContext(context.Background(), reqs, opts...)
}

// AnalyzeBatchContext answers many analysis requests, deduplicating
// identical parameter sets (each distinct set is solved at most once per
// batch), serving repeats from the result cache, and fanning distinct
// solves out over a worker pool bounded by MaxConcurrent. Results align
// with the request slice; duplicates receive independent copies. The first
// error aborts the batch.
//
// ctx covers every solve of the batch: once it ends, in-flight solves stop
// at their next sweep boundary and the batch returns a *CancelError.
func (s *Service) AnalyzeBatchContext(ctx context.Context, reqs []AttackParams, opts ...Option) ([]*Analysis, error) {
	out := make([]*Analysis, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	distinct := make(map[AttackParams][]int, len(reqs))
	order := make([]AttackParams, 0, len(reqs))
	for i, r := range reqs {
		if _, ok := distinct[r]; !ok {
			order = append(order, r)
		}
		distinct[r] = append(distinct[r], i)
	}
	pool := len(order)
	if n := runtime.NumCPU(); pool > n {
		pool = n
	}
	if s.cfg.MaxConcurrent > 0 && pool > s.cfg.MaxConcurrent {
		pool = s.cfg.MaxConcurrent
	}
	solved := make([]*Analysis, len(order))
	errs := make([]error, len(order))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(order) {
					return
				}
				solved[i], errs[i] = s.AnalyzeContext(ctx, order[i], opts...)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("selfishmining: batch request for %v: %w", order[i], err)
		}
	}
	for i, r := range order {
		idxs := distinct[r]
		out[idxs[0]] = solved[i]
		for _, idx := range idxs[1:] {
			out[idx] = solved[i].clone()
		}
	}
	return out, nil
}

// ServiceStats is a point-in-time snapshot of a Service's serving counters.
type ServiceStats struct {
	// Results, Structures and WarmStores are the LRU accounting of the
	// three caches (warm-store hits count neighborhood lookups, not
	// vector reuse — see WarmHits).
	Results, Structures, WarmStores cache.Stats
	// Solves counts analyses actually executed; Compiles counts
	// families.Compile runs (structure-cache misses that did the work).
	Solves, Compiles uint64
	// Coalesced counts requests answered by another request's in-flight
	// solve.
	Coalesced uint64
	// WarmHits / WarmMisses count bound-only solves seeded / not seeded
	// from a cached value vector; WarmPuts counts vectors retained.
	WarmHits, WarmMisses, WarmPuts uint64
	// SweepPoints counts grid points served by Sweep (cached or solved).
	SweepPoints uint64
	// Canceled and DeadlineExceeded count requests that ended with a
	// context interruption (explicit cancel vs deadline) — whether solving,
	// queued on MaxConcurrent, or coalesced behind a leader. They tally
	// request outcomes, not solver work: a coalesced follower that cancels
	// its wait shows up here and nowhere else (its leader's solve, caches
	// and warm stores are untouched).
	Canceled, DeadlineExceeded uint64
	// InFlight is the number of distinct analyses currently executing.
	InFlight int
}

// Stats snapshots the serving counters.
func (s *Service) Stats() ServiceStats {
	return ServiceStats{
		Results:          s.results.Stats(),
		Structures:       s.structures.Stats(),
		WarmStores:       s.warm.Stats(),
		Solves:           s.solves.Load(),
		Compiles:         s.compiles.Load(),
		Coalesced:        s.flight.Coalesced(),
		WarmHits:         s.warmHits.Load(),
		WarmMisses:       s.warmMisses.Load(),
		WarmPuts:         s.warmPuts.Load(),
		SweepPoints:      s.sweepPoints.Load(),
		Canceled:         s.canceled.Load(),
		DeadlineExceeded: s.deadline.Load(),
		InFlight:         s.flight.InFlight(),
	}
}
