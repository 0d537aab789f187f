package selfishmining

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestResumeDeterminismPerFamily is the resume half of the determinism
// suite: for every registered model family, cancel an analysis at a
// binary-search checkpoint, resume it from the persisted snapshot on a
// FRESH service (no caches to hide behind), and the result must be bitwise
// identical — ERRev, bracket, counters, and the full strategy — to an
// uninterrupted cold solve.
func TestResumeDeterminismPerFamily(t *testing.T) {
	for _, tc := range cancelFamilyCases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := NewService(ServiceConfig{}).AnalyzeContext(context.Background(), tc.params, WithEpsilon(1e-3))
			if err != nil {
				t.Fatalf("cold reference: %v", err)
			}
			if ref.Iterations < 3 {
				t.Fatalf("reference finished in %d steps; too few to cancel mid-search", ref.Iterations)
			}
			// Cancel cooperatively after the 2nd binary-search step: the
			// progress hook flips the context, and the search observes it at
			// the next step boundary — a deterministic checkpoint, no timing.
			for stop := 1; stop < ref.Iterations; stop += max(ref.Iterations/3, 1) {
				ctx, cancel := context.WithCancel(context.Background())
				var last *Checkpoint
				_, cerr := NewService(ServiceConfig{}).AnalyzeContext(ctx, tc.params,
					WithEpsilon(1e-3),
					WithProgress(func(lo, up float64, iter int) {
						if iter >= stop {
							cancel()
						}
					}),
					WithCheckpoints(func(ck Checkpoint) { last = &ck }),
				)
				cancel()
				if cerr == nil {
					t.Fatalf("stop=%d: solve survived cancellation", stop)
				}
				if !errors.Is(cerr, ErrCanceled) {
					t.Fatalf("stop=%d: error %v does not match ErrCanceled", stop, cerr)
				}
				if last == nil {
					t.Fatalf("stop=%d: no checkpoint emitted before cancellation", stop)
				}
				if last.Iterations < stop {
					t.Fatalf("stop=%d: last checkpoint is from step %d", stop, last.Iterations)
				}
				got, err := NewService(ServiceConfig{}).AnalyzeContext(context.Background(), tc.params,
					WithEpsilon(1e-3), WithResume(last))
				if err != nil {
					t.Fatalf("stop=%d: resume: %v", stop, err)
				}
				equalAnalyses(t, tc.name, ref, got)
			}
		})
	}
}

// TestResumeSharesResultCache: a resumed solve is bitwise identical to the
// cold one, so it lands in (and is served from) the same cache entry.
func TestResumeSharesResultCache(t *testing.T) {
	params := cancelFamilyCases[0].params
	svc := NewService(ServiceConfig{})
	var cks []Checkpoint
	ref, err := svc.AnalyzeContext(context.Background(), params, WithEpsilon(1e-3),
		WithCheckpoints(func(ck Checkpoint) { cks = append(cks, ck) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	// The resume request must be answered from the result cache — no new
	// solve — because its result could not differ.
	before := svc.Stats().Solves
	got, info, err := svc.AnalyzeDetailedContext(context.Background(), params, WithEpsilon(1e-3),
		WithResume(&cks[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached {
		t.Error("resumed request with a cached twin was not served from cache")
	}
	if svc.Stats().Solves != before {
		t.Error("resumed request re-solved a cached analysis")
	}
	equalAnalyses(t, "cached resume", ref, got)
}

// TestCheckpointsMatchProgress: checkpoints carry the same bracket the
// progress hook reports, and their value vectors have the model's size.
func TestCheckpointsMatchProgress(t *testing.T) {
	params := cancelFamilyCases[0].params
	type step struct{ lo, up float64 }
	var progress []step
	var cks []Checkpoint
	res, err := AnalyzeContext(context.Background(), params, WithEpsilon(1e-3),
		WithProgress(func(lo, up float64, iter int) { progress = append(progress, step{lo, up}) }),
		WithCheckpoints(func(ck Checkpoint) { cks = append(cks, ck) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != len(progress) || len(cks) != res.Iterations {
		t.Fatalf("%d checkpoints, %d progress calls, %d iterations", len(cks), len(progress), res.Iterations)
	}
	for i, ck := range cks {
		if math.Float64bits(ck.BetaLow) != math.Float64bits(progress[i].lo) ||
			math.Float64bits(ck.BetaUp) != math.Float64bits(progress[i].up) {
			t.Errorf("step %d: checkpoint bracket [%v, %v] != progress [%v, %v]",
				i+1, ck.BetaLow, ck.BetaUp, progress[i].lo, progress[i].up)
		}
		if ck.Iterations != i+1 {
			t.Errorf("checkpoint %d has Iterations %d", i, ck.Iterations)
		}
		if len(ck.Values) != res.NumStates {
			t.Errorf("checkpoint %d carries %d values for a %d-state model", i, len(ck.Values), res.NumStates)
		}
	}
}
