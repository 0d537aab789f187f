// Package par provides the small deterministic parallelism primitives used
// by the solvers and the sweep orchestration: worker-count normalization and
// a chunked parallel-for over contiguous index ranges.
//
// Determinism contract: For partitions [0, n) into contiguous chunks whose
// boundaries are a pure function of (n, workers). Callers that (a) write
// only to per-index slots of shared output slices and (b) reduce per-chunk
// results with associative, commutative, exact operations (min, max, integer
// sums) produce results bitwise identical to a serial loop, for every worker
// count. This is the argument that makes the parallel value-iteration sweeps
// of internal/kernel reproducible at any -workers setting.
package par

import (
	"math"
	"runtime"
	"sync"
)

// Workers normalizes a worker-count option: n if positive, otherwise
// runtime.NumCPU(). This is the single defaulting rule for every Workers
// knob in the repository (analysis.Options, the selfishmining functional
// options, and the -workers CLI flags).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Grain caps a worker count so that each worker receives at least min
// indices of an n-sized range, always returning at least 1. It keeps tiny
// problems on the serial fast path where goroutine fan-out would dominate
// the useful work.
func Grain(n, workers, min int) int {
	if min < 1 {
		min = 1
	}
	if w := n / min; workers > w {
		workers = w
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// NumChunks returns the number of chunks For will use: min(workers, n), at
// least 1. Callers size per-chunk reduction buffers with it.
func NumChunks(n, workers int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// MinMax merges per-chunk extrema of a chunked sweep. Min and max are
// exact, associative, and commutative, so the merged result is bitwise
// identical to a serial running min/max regardless of the chunk layout —
// the reduction half of the package's determinism contract.
type MinMax struct {
	los, his []float64
}

// NewMinMax sizes a reducer for the given chunk count (NumChunks).
func NewMinMax(chunks int) *MinMax {
	return &MinMax{los: make([]float64, chunks), his: make([]float64, chunks)}
}

// Set records chunk's extrema; each chunk owns its slot, so concurrent
// calls from distinct chunks need no locking.
func (r *MinMax) Set(chunk int, lo, hi float64) {
	r.los[chunk], r.his[chunk] = lo, hi
}

// Reduce merges all chunks, after the For call that filled them returned.
func (r *MinMax) Reduce() (lo, hi float64) {
	lo, hi = r.los[0], r.his[0]
	for i := 1; i < len(r.los); i++ {
		lo = math.Min(lo, r.los[i])
		hi = math.Max(hi, r.his[i])
	}
	return lo, hi
}

// Shift subtracts shift from every element of v, chunked over workers: the
// normalization step of relative value iteration. Element updates are
// independent, so the result is identical at any worker count.
func Shift(v []float64, shift float64, workers int) {
	For(len(v), workers, func(_, from, to int) {
		for i := from; i < to; i++ {
			v[i] -= shift
		}
	})
}

// For runs fn over [0, n) split into NumChunks(n, workers) contiguous
// near-equal chunks: fn(chunk, lo, hi) handles indices [lo, hi). The last
// chunk runs inline on the caller's goroutine — the value-iteration loops
// call For twice per sweep, so saving one spawn plus one context switch per
// call matters on the hot path — and the remaining chunks each get a
// goroutine; For returns after all complete.
//
// Chunk boundaries depend only on (n, workers), so any per-chunk state
// indexed by the chunk number is stable across runs.
func For(n, workers int, fn func(chunk, lo, hi int)) {
	chunks := NumChunks(n, workers)
	if chunks == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(chunks - 1)
	for c := 0; c < chunks-1; c++ {
		go func(c int) {
			defer wg.Done()
			fn(c, c*n/chunks, (c+1)*n/chunks)
		}(c)
	}
	fn(chunks-1, (chunks-1)*n/chunks, n)
	wg.Wait()
}
