package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/kernel"
)

// errAfterChecks cancels after n Err() observations, landing the
// cancellation on an exact solver checkpoint (sweep or binary-search step
// boundary) with no timing involved.
type errAfterChecks struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *errAfterChecks) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestAnalyzeContextCancelPartialResult: an interrupted binary search
// returns the bracket narrowed so far alongside the wrapped context error,
// in bound-only and in full mode.
func TestAnalyzeContextCancelPartialResult(t *testing.T) {
	for _, boundOnly := range []bool{true, false} {
		t.Run(fmt.Sprintf("boundOnly=%v", boundOnly), func(t *testing.T) {
			ctx := &errAfterChecks{Context: context.Background(), n: 20}
			res, err := Analyze(ctx, mustCompile(t), Options{Epsilon: 1e-3, SkipStrategy: boundOnly})
			if err == nil {
				t.Skip("analysis finished before 20 checkpoints")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
			if res == nil {
				t.Fatal("no partial result on cancellation")
			}
			if res.Sweeps == 0 {
				t.Error("partial result reports zero sweeps for a mid-solve cancel")
			}
			if res.BetaLow < 0 || res.BetaUp > 1 || res.BetaLow > res.BetaUp {
				t.Errorf("malformed partial bracket [%v, %v]", res.BetaLow, res.BetaUp)
			}
		})
	}
}

// TestAnalyzeContextCompletedBitwise: attaching a live context changes no
// bit of a completed full analysis.
func TestAnalyzeContextCompletedBitwise(t *testing.T) {
	ref, err := Analyze(t.Context(), mustCompile(t), Options{Epsilon: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := Analyze(ctx, mustCompile(t), Options{Epsilon: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "ctx vs plain", ref, got)
}

// TestProgressReportsEveryStep: the Progress hook fires once per
// binary-search step with the live bracket, on both backends, and a hooked
// run stays bitwise identical to an unhooked one.
func TestProgressReportsEveryStep(t *testing.T) {
	var calls int
	var lastLo, lastUp float64
	opts := Options{Epsilon: 1e-3, SkipStrategy: true, Progress: func(lo, up float64, iter int) {
		calls++
		if iter != calls {
			t.Errorf("progress call %d reported iteration %d", calls, iter)
		}
		lastLo, lastUp = lo, up
	}}
	comp, err := families.Compile("fork", core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(t.Context(), comp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Iterations {
		t.Errorf("progress fired %d times for %d iterations", calls, res.Iterations)
	}
	if math.Float64bits(lastLo) != math.Float64bits(res.BetaLow) || math.Float64bits(lastUp) != math.Float64bits(res.BetaUp) {
		t.Errorf("last progress bracket [%v, %v] != final [%v, %v]", lastLo, lastUp, res.BetaLow, res.BetaUp)
	}
	plain, err := Analyze(t.Context(), mustCompile(t), Options{Epsilon: 1e-3, SkipStrategy: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(plain.ERRev) != math.Float64bits(res.ERRev) {
		t.Errorf("hooked ERRev %v != plain %v", res.ERRev, plain.ERRev)
	}
}

func mustCompile(t *testing.T) *kernel.Compiled {
	t.Helper()
	comp, err := families.Compile("fork", core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	return comp
}
