// Package selfishmining is the public API of the reproduction of
// "Fully Automated Selfish Mining Analysis in Efficient Proof Systems
// Blockchains" (Chatterjee et al., PODC 2024).
//
// It exposes the paper's pipeline end to end:
//
//   - AnalyzeContext runs the fully automated analysis (Algorithm 1) for an
//     attack configuration, returning an ε-tight lower bound on the optimal
//     expected relative revenue (ERRev) and a strategy achieving it.
//   - Analysis.Simulate replays the computed strategy on a physical
//     longest-chain block tree as an independent Monte-Carlo check.
//   - HonestRevenue and SingleTreeRevenue evaluate the paper's two
//     baselines.
//   - SweepContext regenerates the ERRev-vs-p curves of the paper's
//     Figure 2, optionally streaming each grid point as it completes.
//
// A minimal session:
//
//	params := selfishmining.AttackParams{
//		Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 2, MaxForkLen: 4,
//	}
//	res, err := selfishmining.AnalyzeContext(ctx, params)
//	if err != nil { ... }
//	fmt.Printf("ERRev >= %.4f\n", res.ERRev)
//
// # Cancellation and deadlines
//
// Every entry point takes a context.Context as its first argument; pass
// context.Background() for a run that is never cut short. Cancellation is
// cooperative and deterministic: Algorithm 1's nested structure — binary
// search on β, value-iteration solves per step, sweeps per solve — is
// checked at every level, but only at sweep BOUNDARIES, never inside a
// sweep, so a solve that completes performs exactly the floating-point
// computation it would have performed with no context attached.
// Interrupted calls return a *CancelError (matching ErrCanceled, and
// context.Canceled or context.DeadlineExceeded via errors.Is) carrying the
// certified partial progress: the binary-search bracket narrowed so far
// and the work done. Cancelling a solve never poisons a Service's caches —
// a canceled solve stores nothing, and re-running it yields a result
// bitwise identical to an uninterrupted one.
// WithProgress observes the live bracket after each binary-search step.
//
// # Model families
//
// Algorithm 1 is model-agnostic — a binary search on β over any MDP whose
// transition probabilities are parametric in the chain parameters — and
// the pipeline is generic over pluggable attack-model families compiled
// onto one protocol-agnostic kernel. AttackParams.Model selects the
// family: "fork" (the paper's model, the default), "singletree" (the
// Eyal–Sirer baseline as a decision-free MDP, cross-validated against the
// exact stationary chain analysis), and "nakamoto" (the classic d=1
// selfish-mining state space). Models lists the registered families with
// their parameter semantics; unknown names fail with the valid list. Only
// the fork family carries the physical simulation substrate — Simulate,
// Profile and strategy files return ErrNoSubstrate elsewhere.
//
// # Parallelism
//
// The whole pipeline scales across cores by default. Analyze fans every
// inner value-iteration sweep out over runtime.NumCPU() goroutines
// (override with WithWorkers), and Sweep additionally distributes the
// (configuration, p) grid points of a panel over a worker pool
// (SweepOptions.Workers), compiling each attack structure once and solving
// every point on solver buffers of its own. Parallel execution is exactly
// reproducible: results are bitwise identical at every worker count, a
// property enforced by this package's determinism tests.
//
// # Serving
//
// Service wraps the pipeline in a serving layer for repeated and
// concurrent traffic: an LRU result cache keyed by the canonicalized
// parameters and options, a compiled-structure cache shared by all (p, γ)
// points of an attack shape, singleflight coalescing of concurrent
// identical requests, a concurrency limit, and warm-started value
// iteration that seeds each bound-only solve from the nearest solved p.
// Cached, coalesced and warm-started answers are bitwise identical to
// cold serial solves. Every analysis runs through a Service — the
// package-level AnalyzeContext and SweepContext each on a fresh one — so
// all paths share the same machinery; cmd/serve exposes it over
// HTTP/JSON:
//
//	svc := selfishmining.NewService(selfishmining.ServiceConfig{})
//	res, err := svc.AnalyzeContext(ctx, params)  // solved once...
//	res2, err := svc.AnalyzeContext(ctx, params) // ...then from cache
//	batch, err := svc.AnalyzeBatchContext(ctx, manyParams) // deduplicated
//	fmt.Printf("%+v\n", svc.Stats())
//
// The serving layer is fully context-aware: a request queued on the
// MaxConcurrent limit or coalesced behind an identical in-flight solve
// unblocks immediately when its own context ends, without disturbing the
// leader's solve or the caches, and the Stats counters record canceled and
// deadline-exceeded requests separately from solves.
//
// # Streaming sweeps
//
// SweepOptions.OnPoint streams a sweep's attack-curve grid points as they
// complete (in parallel completion order), so consumers can render or
// forward partial panels while the sweep is still running; cmd/serve's
// POST /v1/sweep/stream endpoint forwards them as NDJSON lines.
package selfishmining

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/simulate"
	"repro/internal/strategy"
)

// AttackParams configures the selfish-mining attack MDP of one model
// family. The shape fields (Depth, Forks, MaxForkLen) are interpreted by
// the selected family — for the default fork family they are the paper's
// (d, f, l) of Section 3.2; see Models for every family's reading.
type AttackParams struct {
	// Model selects the attack-model family ("" means DefaultModel, the
	// paper's fork model). See Models for the registered families.
	Model string
	// Adversary is the fraction p ∈ [0, 1] of the total mining resource
	// held by the adversarial coalition.
	Adversary float64
	// Switching is the probability γ ∈ [0, 1] that honest miners adopt the
	// adversary's chain when a revealed fork ties the public chain in a
	// broadcast race.
	Switching float64
	// Depth is the attack depth d ≥ 1: for the fork family, private forks
	// are grown on each of the last d main-chain blocks.
	Depth int
	// Forks is the forking number f ≥ 1: for the fork family, private
	// forks per forked block; for singletree, the tree width bound.
	Forks int
	// MaxForkLen is the length bound l ≥ 1 that keeps the MDP finite.
	MaxForkLen int
}

func (p AttackParams) core() core.Params {
	return core.Params{
		P:      p.Adversary,
		Gamma:  p.Switching,
		Depth:  p.Depth,
		Forks:  p.Forks,
		MaxLen: p.MaxForkLen,
	}
}

// family resolves the model family, normalizing the empty name to the
// default.
func (p AttackParams) family() (families.Family, error) {
	return families.Get(p.Model)
}

// isFork reports whether the parameters select the default fork family
// (the only family with a physical simulation substrate).
func (p AttackParams) isFork() bool { return IsDefaultModel(p.Model) }

// Validate checks the family name, parameter ranges and model size.
func (p AttackParams) Validate() error {
	fam, err := p.family()
	if err != nil {
		return err
	}
	return fam.Validate(p.core())
}

// String renders the parameters compactly.
func (p AttackParams) String() string {
	if p.isFork() {
		return p.core().String()
	}
	return fmt.Sprintf("model=%s %s", p.Model, p.core())
}

// NumStates returns the size of the induced MDP state space (0 if the
// family or parameters are invalid; use Validate for the error).
func (p AttackParams) NumStates() int {
	fam, err := p.family()
	if err != nil {
		return 0
	}
	n, err := fam.NumStates(p.core())
	if err != nil {
		return 0
	}
	return n
}

// config collects analysis options.
type config struct {
	epsilon    float64
	workers    int
	skipEval   bool
	boundOnly  bool
	progress   func(betaLow, betaUp float64, iteration int)
	checkpoint func(Checkpoint)
	resume     *Checkpoint
}

// Option customizes Analyze.
type Option func(*config)

// WithEpsilon sets the binary-search precision ε: the returned ERRev lies
// in [ERRev* − ε, ERRev*]. ε must be finite and ≥ 0; 0 means the default,
// 1e-4. A negative, infinite or NaN ε fails the request before it solves.
func WithEpsilon(eps float64) Option { return func(c *config) { c.epsilon = eps } }

// WithWorkers sets the number of goroutines each inner value-iteration
// sweep is fanned out across. n > 0 is honored exactly; the default uses
// every core (runtime.NumCPU()), falling back to serial sweeps on models
// too small to benefit. The analysis result is bitwise identical at every
// worker count — each sweep reads only the previous value vector, so
// chunked execution reproduces the serial floating-point computation
// exactly — only wall-clock time changes.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithoutStrategyEval skips the independent evaluation of the final
// strategy's revenue, saving time on very large models.
func WithoutStrategyEval() Option { return func(c *config) { c.skipEval = true } }

// WithBoundOnly restricts the analysis to the certified ERRev bracket: the
// final full-precision solve and strategy extraction are skipped entirely,
// so the result has no Strategy (Simulate, Profile and WriteStrategy return
// errors) and StrategyERRev is the skipped marker. Every retained output is
// a pure function of the binary search's exact sign decisions, which is
// what lets sweeps and the Service warm-start bound-only solves from
// cached value vectors without changing a single bit of the result.
func WithBoundOnly() Option { return func(c *config) { c.boundOnly = true } }

// WithProgress registers a callback invoked after every binary-search step
// with the certified ERRev bracket [betaLow, betaUp] narrowed so far and
// the number of steps completed. It observes progress only — it cannot
// change any result — and runs on the solving goroutine between inner
// solves, so it must return promptly. Through a Service, progress fires
// only on requests that actually solve: answers served from the result
// cache or coalesced behind another request's solve report nothing (they
// did no search). The callback is not part of the service's cache key.
func WithProgress(f func(betaLow, betaUp float64, iteration int)) Option {
	return func(c *config) { c.progress = f }
}

// Analysis is the outcome of the automated analysis for one configuration.
type Analysis struct {
	// Params echoes the analyzed configuration.
	Params AttackParams
	// ERRev is the certified ε-tight lower bound on the optimal expected
	// relative revenue (Corollary 3.3). The chain quality under the attack
	// is 1 − ERRev.
	ERRev float64
	// ERRevUpper is the final upper end of the binary-search bracket:
	// within the MDP model (bounded forks, disjoint fork growth) the
	// optimal ERRev lies in [ERRev, ERRevUpper]. Note this is NOT an upper
	// bound for unrestricted selfish mining — the paper leaves general
	// upper bounds as future work; this exposes the two-sided bound that
	// Algorithm 1 already certifies for the modeled strategy class.
	ERRevUpper float64
	// StrategyERRev is the revenue of Strategy, evaluated independently of
	// the search by fixed-policy value iteration to the search's gain
	// precision (NaN if skipped via WithoutStrategyEval).
	StrategyERRev float64
	// Strategy is the ε-optimal positional strategy (an action index per
	// MDP state).
	Strategy []int
	// Iterations and Sweeps report binary-search steps and total
	// value-iteration sweeps.
	Iterations, Sweeps int
	// NumStates is the size of the solved MDP state space, recorded at
	// solve time — for families with explored state spaces this avoids
	// re-deriving it from Params (which would rebuild the exploration).
	NumStates int

	model *core.Model
}

// AnalyzeContext runs the paper's Algorithm 1 on the given configuration of
// any registered model family (AttackParams.Model): it compiles the
// family's attack MDP onto the flat-CSR kernel and runs the binary search
// over it. It is Service.AnalyzeContext on a fresh Service, so both entry
// points check options alike and return bitwise identical analyses;
// callers that analyze repeatedly should hold their own Service, which
// also reuses results and compiled structures across calls.
//
// ctx cancels the analysis cooperatively at deterministic checkpoints
// (value-iteration sweep and binary-search step boundaries); an interrupted
// call returns a *CancelError carrying the certified partial progress (see
// the package's cancellation notes). A call that completes is bitwise
// identical to one with no cancelable context attached.
func AnalyzeContext(ctx context.Context, p AttackParams, opts ...Option) (*Analysis, error) {
	// A warm start could only serve a later request to this Service, and
	// there is none, so it keeps no copy of the solved value vector.
	return NewService(ServiceConfig{WarmCacheSize: -1}).AnalyzeContext(ctx, p, opts...)
}

// newAnalysis assembles the public result from an internal one. withModel
// attaches the simulation substrate (skipped for bound-only analyses,
// which carry no strategy to replay, and for non-fork families, which
// have none); numStates is the solved state count, recorded to spare
// result consumers a re-derivation.
func newAnalysis(p AttackParams, res *analysis.Result, withModel bool, numStates int) (*Analysis, error) {
	a := &Analysis{
		Params:        p,
		ERRev:         res.ERRev,
		ERRevUpper:    res.BetaUp,
		StrategyERRev: res.StrategyERRev,
		Strategy:      res.Strategy,
		Iterations:    res.Iterations,
		Sweeps:        res.Sweeps,
		NumStates:     numStates,
	}
	if withModel {
		model, err := core.NewModel(p.core())
		if err != nil {
			return nil, err
		}
		a.model = model
	}
	return a, nil
}

// clone returns a shallow copy with an independent simulation substrate, so
// concurrent callers handed the same cached analysis can Simulate and
// Profile without sharing mutable scratch. The Strategy slice is shared and
// must be treated as read-only.
func (a *Analysis) clone() *Analysis {
	cp := *a
	if cp.model != nil {
		cp.model = cp.model.Clone()
	}
	return &cp
}

// ChainQuality returns 1 − ERRev, the paper's chain-quality measure under
// the computed attack.
func (a *Analysis) ChainQuality() float64 { return 1 - a.ERRev }

// ErrBoundOnly is returned by strategy-dependent methods of an Analysis
// computed with WithBoundOnly (or a bound-only service request), which
// certifies the revenue bracket without extracting a strategy.
var ErrBoundOnly = errors.New("selfishmining: bound-only analysis has no strategy")

// ErrNoSubstrate is returned by the physical-simulation methods (Simulate,
// Profile, WriteStrategy) of analyses over non-fork model families: the
// longest-chain block-tree substrate replays fork-model strategies only.
var ErrNoSubstrate = errors.New("selfishmining: simulation substrate is only available for the fork family")

// Simulate replays the computed strategy on the physical chain substrate
// for the given number of MDP steps, returning empirical statistics. The
// run self-checks that chain ownership matches the MDP ledger. Only the
// fork family carries a substrate (ErrNoSubstrate otherwise).
func (a *Analysis) Simulate(steps int, seed int64) (*simulate.Stats, error) {
	if a.Strategy == nil {
		return nil, ErrBoundOnly
	}
	if a.model == nil {
		return nil, ErrNoSubstrate
	}
	return simulate.Run(a.model, a.Strategy, steps, seed)
}

// Profile summarizes the structure of the computed strategy (how often it
// withholds, races, or overtakes). Fork family only (ErrNoSubstrate
// otherwise).
func (a *Analysis) Profile() (*strategy.Profile, error) {
	if a.Strategy == nil {
		return nil, ErrBoundOnly
	}
	if a.model == nil {
		return nil, ErrNoSubstrate
	}
	return strategy.Profiled(a.model, a.Strategy)
}

// WriteStrategy serializes the strategy with a parameter header. The
// header format is fork-specific, so non-fork analyses return
// ErrNoSubstrate.
func (a *Analysis) WriteStrategy(w io.Writer) error {
	if a.Strategy == nil {
		return ErrBoundOnly
	}
	if !a.Params.isFork() {
		return ErrNoSubstrate
	}
	return strategy.Write(w, a.Params.core(), a.Strategy)
}

// ReadStrategy loads a strategy previously saved with WriteStrategy,
// verifying the parameter header and that every state selects one of its
// actions.
func ReadStrategy(r io.Reader, p AttackParams) ([]int, error) {
	return strategy.Read(r, p.core())
}

// HonestRevenue returns the expected relative revenue of honest mining
// (baseline 1 of the paper): exactly p.
func HonestRevenue(p float64) (float64, error) { return baseline.HonestERRev(p) }

// SingleTreeRevenue evaluates the paper's second baseline — the direct
// extension of classic Bitcoin selfish mining that grows one private tree
// of bounded depth and width — by exact Markov-chain analysis.
func SingleTreeRevenue(p, gamma float64, maxDepth, maxWidth int) (float64, error) {
	return baseline.SingleTreeERRev(baseline.SingleTreeParams{
		P: p, Gamma: gamma, MaxDepth: maxDepth, MaxWidth: maxWidth,
	})
}

// EyalSirerRevenue returns the classic PoW SM1 selfish-mining revenue from
// the published closed form, for reference comparisons.
func EyalSirerRevenue(p, gamma float64) (float64, error) {
	return baseline.EyalSirerClosedForm(p, gamma)
}

// IsSkipped reports whether a revenue value is the NaN marker used when
// strategy evaluation was skipped.
func IsSkipped(v float64) bool { return math.IsNaN(v) }
