package kernel

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

// errAfterChecks cancels after n Err() observations, pinning the solve to
// an exact sweep boundary (the kernel polls Err() once per sweep).
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

// compileTwoState compiles the deterministic two-state cycle, whose
// damped value iteration contracts slowly enough (~0.9 per sweep) that
// early-sweep cancellation points are never outrun by convergence.
func compileTwoState(t *testing.T) *Compiled {
	t.Helper()
	c, err := Compile(cycleSource{}, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMeanPayoffCtxPreCanceled: a context that is already dead does zero
// sweeps.
func TestMeanPayoffCtxPreCanceled(t *testing.T) {
	c := compileTwoState(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.MeanPayoffCtx(ctx, 0.3, Options{Tol: 1e-9})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Iters != 0 {
		t.Fatalf("pre-canceled solve ran %+v, want 0 sweeps", res)
	}
}

// TestMeanPayoffCtxCancelsAtBoundary: cancellation lands exactly at the
// requested sweep boundary and reports the sweeps completed.
func TestMeanPayoffCtxCancelsAtBoundary(t *testing.T) {
	c := compileTwoState(t)
	const n = 3
	ctx := &errAfterChecks{Context: context.Background(), n: n}
	res, err := c.MeanPayoffCtx(ctx, 0.3, Options{Tol: 1e-12, MaxIter: 100000})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Iters != n {
		t.Fatalf("canceled after %d sweeps, want exactly %d (the checkpoint is the sweep boundary)", res.Iters, n)
	}
}

// TestMeanPayoffCtxCompletedBitwise: attaching a live (never-fired)
// context changes nothing about a completed solve — the check sits between
// sweeps, never inside — down to the converged value vector.
func TestMeanPayoffCtxCompletedBitwise(t *testing.T) {
	a := compileTwoState(t)
	b := compileTwoState(t)
	ref, err := a.MeanPayoffCtx(context.Background(), 0.3, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := b.MeanPayoffCtx(ctx, 0.3, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Gain) != math.Float64bits(ref.Gain) ||
		math.Float64bits(got.Lo) != math.Float64bits(ref.Lo) ||
		math.Float64bits(got.Hi) != math.Float64bits(ref.Hi) ||
		got.Iters != ref.Iters {
		t.Fatalf("ctx solve %+v != plain solve %+v", got, ref)
	}
	want, have := a.Values(), b.Values()
	for i := range want {
		if math.Float64bits(have[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value vectors diverge at state %d", i)
		}
	}
}

// TestEvalERRevCtxCancel: fixed-policy evaluation honors the context too.
func TestEvalERRevCtxCancel(t *testing.T) {
	c := compileTwoState(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.EvalERRevCtx(ctx, []int{0, 0}, Options{Tol: 1e-10}); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
