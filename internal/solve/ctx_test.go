package solve

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/kernel"
)

// errAfterChecks cancels after n Err() observations; the kernel polls
// Err() once per sweep, so n pins the cancellation to an exact boundary.
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

func TestMeanPayoffContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := chooseLoop().compile(t).MeanPayoffCtx(ctx, 0.3, kernel.Options{Tol: 1e-9})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Iters != 0 {
		t.Fatalf("pre-canceled solve ran %d sweeps, want 0", res.Iters)
	}
}

func TestMeanPayoffContextCancelsAtBoundary(t *testing.T) {
	const n = 4
	ctx := &errAfterChecks{Context: context.Background(), n: n}
	// stayOrCycle's damped 2-cycle contracts slowly, so it cannot converge
	// before the fourth sweep boundary.
	res, err := stayOrCycle().compile(t).MeanPayoffCtx(ctx, 0.5, kernel.Options{Tol: 1e-15, MaxIter: 100000})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Iters != n {
		t.Fatalf("canceled after %d sweeps, want exactly %d", res.Iters, n)
	}
}

// TestMeanPayoffContextCompletedBitwise: a live context changes nothing
// about a completed solve — the check sits between sweeps, never inside.
func TestMeanPayoffContextCompletedBitwise(t *testing.T) {
	plain := stayOrCycle().compile(t)
	ref, err := plain.MeanPayoffCtx(context.Background(), 0.5, kernel.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx := stayOrCycle().compile(t)
	got, err := withCtx.MeanPayoffCtx(ctx, 0.5, kernel.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Gain) != math.Float64bits(ref.Gain) || got.Iters != ref.Iters {
		t.Fatalf("ctx solve (gain %v, %d sweeps) != plain solve (gain %v, %d sweeps)",
			got.Gain, got.Iters, ref.Gain, ref.Iters)
	}
	want, have := plain.Values(), withCtx.Values()
	for i := range want {
		if math.Float64bits(have[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value vectors diverge at state %d", i)
		}
	}
}
