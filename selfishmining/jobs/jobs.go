// Package jobs is the asynchronous job layer over the selfish-mining
// analysis pipeline: it wraps selfishmining.Service behind durable job
// records with a full lifecycle (queued → running → done | failed |
// canceled), so analyses and sweeps can outlive the HTTP request or
// terminal session that started them.
//
// A Manager owns a bounded worker pool fed from a priority/FIFO queue,
// per-job progress snapshots driven by the pipeline's progress hooks, a
// per-job event log consumed by Server-Sent-Events streams (with
// Last-Event-ID reconnect), TTL-based retention with eviction, and a
// pluggable Store — in-memory by default, or a JSON-snapshot DiskStore
// that survives process restarts.
//
// # Checkpoint-resume
//
// The load-bearing property is checkpoint-resume: a running analyze job
// snapshots Algorithm 1's binary search after every step (the certified β
// bracket plus the warm value vector, via selfishmining.WithCheckpoints).
// When the job is canceled — or interrupted by a graceful shutdown — the
// latest checkpoint is persisted with the record, and Resume re-enqueues
// the job to replay the search from it (selfishmining.WithResume). A
// resumed job's result is bitwise identical to an uninterrupted solve —
// ERRev, bracket, counters, and the full strategy — even across a process
// restart through a DiskStore; see selfishmining.Checkpoint for why.
// Sweep jobs checkpoint per completed grid point: every point streamed
// through OnPoint is appended to the record's sweep checkpoint, and a
// resumed sweep (uniform or adaptive) replays those points verbatim
// through selfishmining.SweepOptions.Resume instead of re-solving them —
// again bitwise identical, again across restarts.
package jobs

import (
	"fmt"
	"math"
	"time"

	"repro/internal/results"
	"repro/selfishmining"
)

// Kind names a job's workload.
type Kind string

const (
	// KindAnalyze is one attack-configuration analysis
	// (Service.AnalyzeContext).
	KindAnalyze Kind = "analyze"
	// KindSweep is one Figure-2 panel (Service.SweepContext).
	KindSweep Kind = "sweep"
)

// State is a job's lifecycle state. The transitions are
//
//	queued → running → done | failed | canceled
//
// plus running → queued when a graceful shutdown interrupts a job (it is
// checkpointed and re-queued, not discarded), and canceled | failed →
// queued on Resume.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final (absent a Resume).
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// AnalyzeSpec is the serializable description of one analyze job. Field
// names match the HTTP wire form of cmd/serve's /v1/analyze.
type AnalyzeSpec struct {
	// Model selects the attack-model family ("" = the default fork model).
	Model string  `json:"model,omitempty"`
	P     float64 `json:"p"`
	Gamma float64 `json:"gamma"`
	Depth int     `json:"d"`
	Forks int     `json:"f"`
	Len   int     `json:"l"`
	// Epsilon is the analysis precision (0 = the default 1e-4).
	Epsilon float64 `json:"epsilon,omitempty"`
	// SkipEval skips the independent exact evaluation of the strategy.
	SkipEval bool `json:"skip_eval,omitempty"`
	// BoundOnly certifies the revenue bracket without extracting a
	// strategy.
	BoundOnly bool `json:"bound_only,omitempty"`
}

// Params maps the spec onto the public parameter type.
func (s AnalyzeSpec) Params() selfishmining.AttackParams {
	return selfishmining.AttackParams{
		Model:     s.Model,
		Adversary: s.P, Switching: s.Gamma,
		Depth: s.Depth, Forks: s.Forks, MaxForkLen: s.Len,
	}
}

// Validate rejects specs the pipeline would reject or silently reinterpret
// (a negative epsilon), so Submit and the HTTP analyze routes refuse them
// up front.
func (s AnalyzeSpec) Validate() error {
	if err := s.Params().Validate(); err != nil {
		return err
	}
	if s.Epsilon < 0 || math.IsNaN(s.Epsilon) || math.IsInf(s.Epsilon, 0) {
		return fmt.Errorf("jobs: epsilon %v: need >= 0 (0 = default)", s.Epsilon)
	}
	return nil
}

// Options assembles the analysis options the spec encodes (callers append
// their own hooks: the manager its progress, checkpoint and resume ones).
func (s AnalyzeSpec) Options() []selfishmining.Option {
	var opts []selfishmining.Option
	if s.Epsilon > 0 {
		opts = append(opts, selfishmining.WithEpsilon(s.Epsilon))
	}
	if s.SkipEval {
		opts = append(opts, selfishmining.WithoutStrategyEval())
	}
	if s.BoundOnly {
		opts = append(opts, selfishmining.WithBoundOnly())
	}
	return opts
}

// SweepConfig is one (d, f) attack curve of a sweep job.
type SweepConfig struct {
	Depth int `json:"d"`
	Forks int `json:"f"`
}

// SweepSpec is the serializable description of one sweep job. Submit
// normalizes it — defaults filled in, every grid point validated — so the
// stored record says exactly what will run.
type SweepSpec struct {
	// Model selects the attack-model family of the panel's curves.
	Model string  `json:"model,omitempty"`
	Gamma float64 `json:"gamma"`
	// PGrid lists the adversary resource fractions (nil = the paper's
	// 0..0.3 in steps of 0.01, filled in at Submit).
	PGrid []float64 `json:"p_grid,omitempty"`
	// Configs lists the attack curves (nil = the family's default, filled
	// in at Submit).
	Configs []SweepConfig `json:"configs,omitempty"`
	// Len is the fork length bound l (0 = the family default).
	Len int `json:"l,omitempty"`
	// TreeWidth is the single-tree baseline width (0 = 5).
	TreeWidth int `json:"tree_width,omitempty"`
	// Epsilon is the per-point precision (0 = 1e-4).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Adaptive switches the sweep to threshold-refining bisection: PGrid
	// becomes the coarse pass (it must be strictly increasing with at
	// least two points), and cells that prove curvature beyond Tolerance
	// are recursively bisected up to MaxDepth. See
	// selfishmining.SweepOptions.Adaptive.
	Adaptive bool `json:"adaptive,omitempty"`
	// Tolerance is the adaptive refinement tolerance (0 = the default
	// selfishmining.DefaultSweepTolerance, filled in at Submit).
	Tolerance float64 `json:"tolerance,omitempty"`
	// MaxDepth bounds the bisection depth (0 = the default
	// selfishmining.DefaultSweepMaxDepth, filled in at Submit).
	MaxDepth int `json:"max_depth,omitempty"`
	// MaxPoints, when > 0, caps the refined points the sweep may add.
	MaxPoints int `json:"max_points,omitempty"`
}

// Normalize fills defaults and validates the spec through
// selfishmining.SweepOptions.Normalize, so a bad point is a Submit error,
// never a late job failure, and the stored record says exactly what will
// run. It writes back the grid, configs, fork length, tree width and, for
// adaptive sweeps, tolerance and depth; Model and Epsilon keep their
// submitted form.
func (s *SweepSpec) Normalize() error {
	opts := s.Options()
	if err := opts.Normalize(); err != nil {
		return err
	}
	s.PGrid, s.Len, s.TreeWidth = opts.PGrid, opts.MaxForkLen, opts.TreeWidth
	s.Tolerance, s.MaxDepth = opts.Tolerance, opts.MaxDepth
	s.Configs = make([]SweepConfig, len(opts.Configs))
	for i, c := range opts.Configs {
		s.Configs[i] = SweepConfig{Depth: c.Depth, Forks: c.Forks}
	}
	return nil
}

// Options maps the spec onto the sweep options it encodes, field for
// field: the one spec-to-options mapping of the jobs manager and the HTTP
// sweep routes (the manager attaches its OnPoint hook).
func (s SweepSpec) Options() selfishmining.SweepOptions {
	opts := selfishmining.SweepOptions{
		Model:      s.Model,
		Gamma:      s.Gamma,
		PGrid:      s.PGrid,
		MaxForkLen: s.Len,
		TreeWidth:  s.TreeWidth,
		Epsilon:    s.Epsilon,
		Adaptive:   s.Adaptive,
		Tolerance:  s.Tolerance,
		MaxDepth:   s.MaxDepth,
		MaxPoints:  s.MaxPoints,
	}
	for _, c := range s.Configs {
		opts.Configs = append(opts.Configs, selfishmining.AttackConfig{Depth: c.Depth, Forks: c.Forks})
	}
	return opts
}

// points is the total attack-curve grid-point count over the requested
// grid (the progress denominator), valid after normalize. An adaptive
// sweep refines beyond this coarse total, so its PointsDone may exceed it.
func (s SweepSpec) points() int { return len(s.PGrid) * len(s.Configs) }

// Request submits one job.
type Request struct {
	// Kind selects the workload; it must match the populated spec.
	Kind Kind `json:"kind"`
	// Priority orders the queue: higher runs first, FIFO within a
	// priority.
	Priority int `json:"priority,omitempty"`
	// RequestID tags the job with the HTTP request id that submitted it,
	// correlating job records, logs, and event streams with the original
	// request's access-log line ("" = untagged).
	RequestID string `json:"request_id,omitempty"`
	// Analyze is the spec of a KindAnalyze job.
	Analyze *AnalyzeSpec `json:"analyze,omitempty"`
	// Sweep is the spec of a KindSweep job.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// Progress is a job's live progress snapshot. For analyze jobs the
// certified ERRev bracket and the binary-search counters advance; for
// sweep jobs the point counters do.
type Progress struct {
	// BetaLow and BetaUp are the certified ERRev bracket narrowed so far
	// (analyze jobs; [0, 1] until the first step completes).
	BetaLow float64 `json:"beta_low"`
	BetaUp  float64 `json:"beta_up"`
	// Iterations counts completed binary-search steps (analyze jobs).
	Iterations int `json:"iterations"`
	// Sweeps counts value-iteration sweeps at the last checkpoint
	// (analyze jobs).
	Sweeps int `json:"sweeps"`
	// PointsDone / PointsTotal count completed attack-curve grid points
	// (sweep jobs). PointsTotal counts the requested (coarse) grid; an
	// adaptive sweep's PointsDone can exceed it as refinement adds points.
	PointsDone  int `json:"points_done"`
	PointsTotal int `json:"points_total"`
}

// AnalyzeResult is the stored outcome of a done analyze job.
type AnalyzeResult struct {
	NumStates    int     `json:"num_states"`
	ERRev        float64 `json:"errev"`
	ERRevUpper   float64 `json:"errev_upper"`
	ChainQuality float64 `json:"chain_quality"`
	// StrategyERRev is absent when evaluation was skipped (the NaN marker
	// cannot ride JSON).
	StrategyERRev *float64 `json:"strategy_errev,omitempty"`
	Iterations    int      `json:"iterations"`
	Sweeps        int      `json:"sweeps"`
	// Strategy is the ε-optimal positional strategy (nil for bound-only
	// jobs). O(states) — HTTP surfaces inline it only on request.
	Strategy []int `json:"strategy,omitempty"`
}

// analyzeResult converts a completed analysis into its stored form.
func analyzeResult(a *selfishmining.Analysis) *AnalyzeResult {
	res := &AnalyzeResult{
		NumStates:    a.NumStates,
		ERRev:        a.ERRev,
		ERRevUpper:   a.ERRevUpper,
		ChainQuality: a.ChainQuality(),
		Iterations:   a.Iterations,
		Sweeps:       a.Sweeps,
		Strategy:     a.Strategy,
	}
	if !selfishmining.IsSkipped(a.StrategyERRev) {
		v := a.StrategyERRev
		res.StrategyERRev = &v
	}
	return res
}

// SweepSeries is one named curve of a sweep job's panel.
type SweepSeries struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// SweepResult is the stored outcome of a done sweep job: the assembled
// Figure-2 panel.
type SweepResult struct {
	Title  string        `json:"title"`
	X      []float64     `json:"x"`
	Series []SweepSeries `json:"series"`
}

// Figure reconstructs the panel as a results.Figure (for CSV/Markdown
// rendering by CLI consumers).
func (r *SweepResult) Figure() (*results.Figure, error) {
	fig := &results.Figure{Title: r.Title, X: r.X}
	for _, s := range r.Series {
		if err := fig.AddSeries(s.Name, s.Values); err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// sweepResult converts an assembled figure into its stored form.
func sweepResult(fig *results.Figure) *SweepResult {
	res := &SweepResult{Title: fig.Title, X: fig.X}
	for _, s := range fig.Series {
		res.Series = append(res.Series, SweepSeries{Name: s.Name, Values: s.Values})
	}
	return res
}

// Status is a point-in-time snapshot of one job, as returned by Submit,
// Get, List, Cancel and Resume and serialized by the HTTP job endpoints.
// Slices (strategy, grids, series) may be shared with the manager's
// record; treat them as read-only.
type Status struct {
	ID    string `json:"id"`
	Kind  Kind   `json:"kind"`
	State State  `json:"state"`
	// Priority echoes the submit-time queue priority.
	Priority int `json:"priority,omitempty"`
	// Analyze / Sweep echo the (normalized) spec of the matching kind.
	Analyze *AnalyzeSpec `json:"analyze,omitempty"`
	Sweep   *SweepSpec   `json:"sweep,omitempty"`
	// Progress is the live progress snapshot.
	Progress Progress `json:"progress"`
	// Result / SweepResult carry the outcome of a done job.
	Result      *AnalyzeResult `json:"result,omitempty"`
	SweepResult *SweepResult   `json:"sweep_result,omitempty"`
	// Error and ErrorCode describe a failed or canceled job ("canceled" /
	// "solver").
	Error     string `json:"error,omitempty"`
	ErrorCode string `json:"error_code,omitempty"`
	// HasCheckpoint reports a persisted resume checkpoint (analyze jobs
	// interrupted mid-search); Resume replays from it.
	HasCheckpoint bool `json:"has_checkpoint,omitempty"`
	// Interrupted marks a job re-queued by a graceful shutdown or crash
	// recovery rather than by an explicit Resume; it survives completion as
	// a historical marker (an explicit Resume clears it).
	Interrupted bool `json:"interrupted,omitempty"`
	// Resumes counts how many times the job was re-queued via Resume.
	Resumes int `json:"resumes,omitempty"`
	// RequestID echoes the submitting request's id (see Request.RequestID).
	RequestID string `json:"request_id,omitempty"`
	// Owner, LeaseToken and LeaseExpires describe the lease on a job
	// running against a shared LeaseStore: which replica holds it, its
	// monotonic fencing token, and when the lease lapses absent a
	// heartbeat renewal. Empty outside multi-replica mode.
	Owner        string     `json:"owner,omitempty"`
	LeaseToken   uint64     `json:"lease_token,omitempty"`
	LeaseExpires *time.Time `json:"lease_expires,omitempty"`
	// SubmittedAt / StartedAt / FinishedAt timestamp the lifecycle (the
	// pointers are nil until the job reaches the respective state).
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// Event is one entry of a job's event log, streamed over SSE. Seq is the
// job-local sequence number (the SSE event id) — reconnect with
// Last-Event-ID to receive only what followed.
type Event struct {
	Seq int64 `json:"seq"`
	// Type is "status" (lifecycle transition; Status set), "progress"
	// (analyze step; Progress set), or "point" (sweep grid point; Point
	// and Progress set).
	Type     string      `json:"type"`
	Status   *Status     `json:"status,omitempty"`
	Progress *Progress   `json:"progress,omitempty"`
	Point    *SweepPoint `json:"point,omitempty"`
}

// SweepPoint is one completed grid point of a sweep job's event stream.
// It doubles as the per-point entry of a sweep job's resume checkpoint
// (Record.SweepCheckpoint): JSON float64 round-trips are exact, so the
// persisted values replay bitwise.
type SweepPoint struct {
	Series string `json:"series"`
	Depth  int    `json:"d"`
	Forks  int    `json:"f"`
	// PIndex is the point's index into the requested grid, or -1 for the
	// refined midpoints of an adaptive sweep.
	PIndex int     `json:"p_index"`
	P      float64 `json:"p"`
	// RefineDepth is the bisection depth of an adaptive sweep's point (0
	// for coarse-grid and uniform points). Distinct from Depth, which is
	// the attack configuration's d.
	RefineDepth int     `json:"refine_depth,omitempty"`
	ERRev       float64 `json:"errev"`
	Sweeps      int     `json:"sweeps"`
}

// NewSweepPoint converts a point streamed by selfishmining's OnPoint into
// its wire and checkpoint form — the one conversion sweep jobs and
// cmd/serve's sweep streams share.
func NewSweepPoint(pt selfishmining.SweepPoint) SweepPoint {
	return SweepPoint{
		Series: pt.Series, Depth: pt.Config.Depth, Forks: pt.Config.Forks,
		PIndex: pt.PIndex, P: pt.P, RefineDepth: pt.Depth,
		ERRev: pt.ERRev, Sweeps: pt.Sweeps,
	}
}
