package solve

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
)

// TestMeanPayoffWorkersDeterminism: the kernel's value iteration returns
// bitwise equal brackets, sweep counts, value vectors, and greedy policies
// at every worker count, on random unichain models large enough to split
// into chunks.
func TestMeanPayoffWorkersDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		f := randomUnichain(r, 60+r.Intn(40), 3)
		beta := r.Float64()
		solveAt := func(workers int) (*kernel.Result, []float64, []int, error) {
			c := f.compile(t)
			c.SetWorkers(workers)
			res, err := c.MeanPayoffCtx(context.Background(), beta, kernel.Options{Tol: 1e-9})
			return res, c.Values(), c.GreedyPolicy(beta), err
		}
		ref, refValues, refPolicy, refErr := solveAt(1)
		for _, w := range []int{2, 4, 7} {
			got, values, policy, gotErr := solveAt(w)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("trial %d workers=%d: error mismatch: %v vs %v", trial, w, gotErr, refErr)
			}
			if got.Lo != ref.Lo || got.Hi != ref.Hi || got.Iters != ref.Iters {
				t.Errorf("trial %d workers=%d: (lo=%v, hi=%v, iters=%d) != serial (lo=%v, hi=%v, iters=%d)",
					trial, w, got.Lo, got.Hi, got.Iters, ref.Lo, ref.Hi, ref.Iters)
			}
			for s := range refValues {
				if math.Float64bits(values[s]) != math.Float64bits(refValues[s]) {
					t.Fatalf("trial %d workers=%d: value vector diverges at state %d", trial, w, s)
				}
			}
			for s := range refPolicy {
				if policy[s] != refPolicy[s] {
					t.Fatalf("trial %d workers=%d: policy diverges at state %d", trial, w, s)
				}
			}
		}
	}
}

// TestEvalPolicyIterativeWorkersDeterminism mirrors the check for the
// fixed-policy evaluator, and cross-checks it against the exact ratio.
func TestEvalPolicyIterativeWorkersDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := randomUnichain(r, 80, 3)
	c := f.compile(t)
	if _, err := c.MeanPayoffCtx(context.Background(), 0.4, kernel.Options{Tol: 1e-9}); err != nil {
		t.Fatal(err)
	}
	policy := c.GreedyPolicy(0.4)
	c.SetWorkers(1)
	ref, err := c.EvalERRevCtx(context.Background(), policy, kernel.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if exact := exactERRev(t, f, policy); math.Abs(ref-exact) > 1e-7 {
		t.Errorf("iterative ERRev %v, exact %v", ref, exact)
	}
	for _, w := range []int{2, 5} {
		c.SetWorkers(w)
		got, err := c.EvalERRevCtx(context.Background(), policy, kernel.Options{Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Errorf("workers=%d: ERRev %v != serial %v", w, got, ref)
		}
	}
}
