package selfishmining

import "repro/internal/analysis"

// Checkpoint is a resumable snapshot of Algorithm 1's binary search at a
// step boundary: the certified ERRev bracket narrowed so far, the step and
// sweep counters, and the converged value vector the next inner solve
// would warm-start from. WithCheckpoints emits one after every completed
// step; WithResume replays the remainder of the search from one.
//
// Resuming from a checkpoint as emitted — against the same model family,
// attack parameters and options — is bitwise identical to never having
// stopped: the binary search's decisions are exact sign certifications
// (independent of the starting vector), and Values is exactly the vector
// the uninterrupted run would have carried into its next solve, so the
// resumed trajectory — ERRev, bracket, iteration and sweep counts, and the
// full extracted strategy — reproduces the uninterrupted computation float
// for float. This is what lets the jobs subsystem cancel a long analysis,
// persist its checkpoint, and later resume it (even in a new process) with
// a result indistinguishable from an uninterrupted solve. A checkpoint
// resumed without its Values still reproduces ERRev, the bracket and the
// step count exactly, but sweep counts and the low-order bits of a full
// analysis's strategy may then differ.
type Checkpoint struct {
	// BetaLow and BetaUp are the certified ERRev bracket at the snapshot.
	BetaLow, BetaUp float64
	// Iterations and Sweeps are the binary-search steps and total
	// value-iteration sweeps completed at the snapshot.
	Iterations, Sweeps int
	// Values is a private copy of the converged value vector of the last
	// completed inner solve (length NumStates of the analyzed model).
	Values []float64
}

// WithCheckpoints registers a callback invoked after every completed
// binary-search step with a resumable Checkpoint. The callback runs on the
// solving goroutine, owns the Checkpoint it receives, and must return
// promptly. Each snapshot copies the O(states) value vector, so register a
// checkpoint sink only when resumability is wanted. Through a Service,
// checkpoints fire only on requests that actually solve — answers served
// from the result cache or coalesced behind another request's solve emit
// none — and the callback is not part of the service's cache key.
func WithCheckpoints(f func(Checkpoint)) Option {
	return func(c *config) { c.checkpoint = f }
}

// WithResume replays Algorithm 1 from a checkpoint instead of the trivial
// [0, 1] bracket: the search continues from ck's bracket with its counters,
// seeded with its value vector. See Checkpoint for the bitwise-identity
// guarantee; the checkpoint is trusted and must come from a run over the
// same model family, attack parameters and analysis options. WithResume
// takes precedence over any warm-start seed the serving layer would apply,
// and never changes what a completed analysis returns — so resumed results
// share the service's result cache with cold ones.
func WithResume(ck *Checkpoint) Option {
	return func(c *config) { c.resume = ck }
}

// analysisCheckpointOpts maps the public checkpoint/resume configuration
// onto analysis.Options for the service's solve.
func (c *config) analysisCheckpointOpts(aOpts *analysis.Options) {
	if c.checkpoint != nil {
		sink := c.checkpoint
		aOpts.OnCheckpoint = func(ck analysis.Checkpoint) { sink(Checkpoint(ck)) }
	}
	if c.resume != nil {
		ck := analysis.Checkpoint(*c.resume)
		aOpts.Resume = &ck
	}
}
