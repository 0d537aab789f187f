package solve

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
)

// TestVariantsAgreeOnRandomUnichains: on random unichains every kernel
// variant must certify the optimal gain that exact policy iteration finds —
// the in-place GS/SOR bursts may reshape the value vector arbitrarily, but
// the certified bracket comes from Jacobi sweeps that bound the gain for
// any vector.
func TestVariantsAgreeOnRandomUnichains(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		f := randomUnichain(r, 2+r.Intn(30), 3)
		beta := r.Float64()
		exact, err := PolicyIteration(f.explicit(beta), 0)
		if err != nil {
			t.Fatalf("trial %d: policy iteration: %v", trial, err)
		}
		for _, v := range []kernel.Variant{kernel.VariantJacobi, kernel.VariantGS, kernel.VariantSOR} {
			res, err := f.compile(t).MeanPayoff(beta, kernel.Options{Tol: 1e-9, Variant: v})
			if err != nil {
				t.Fatalf("trial %d: %v: %v", trial, v, err)
			}
			if math.Abs(res.Gain-exact.Gain) > 1e-8 {
				t.Errorf("trial %d: %v gain %v, PI %v", trial, v, res.Gain, exact.Gain)
			}
			if res.Lo > exact.Gain+1e-12 || res.Hi < exact.Gain-1e-12 {
				t.Errorf("trial %d: %v bracket [%v, %v] misses the PI gain %v", trial, v, res.Lo, res.Hi, exact.Gain)
			}
		}
	}
}

// TestVariantSORHonorsOmega: an explicit in-range Omega is accepted, and the
// solve still certifies the Jacobi gain.
func TestVariantSORHonorsOmega(t *testing.T) {
	res, err := stayOrCycle().compile(t).MeanPayoff(0.5, kernel.Options{Tol: 1e-9, Variant: kernel.VariantSOR, Omega: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Gain-1) > 1e-8 {
		t.Errorf("gain = %v, want 1", res.Gain)
	}
}

// TestVariantSignOnlyDecisionsMatch: sign-only solves drive binary-search
// decisions, so every variant may only certify the sign of the exact gain.
func TestVariantSignOnlyDecisionsMatch(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		f := randomUnichain(r, 2+r.Intn(20), 3)
		beta := r.Float64()
		exact, err := PolicyIteration(f.explicit(beta), 0)
		if err != nil {
			t.Fatalf("trial %d: policy iteration: %v", trial, err)
		}
		for _, v := range []kernel.Variant{kernel.VariantJacobi, kernel.VariantGS} {
			res, err := f.compile(t).MeanPayoff(beta, kernel.Options{Tol: 1e-6, SignOnly: true, Variant: v})
			if err != nil {
				t.Fatalf("trial %d: %v: %v", trial, v, err)
			}
			if (res.Lo > 0 && exact.Gain <= 0) || (res.Hi < 0 && exact.Gain >= 0) {
				t.Errorf("trial %d: %v certified the sign of [%v, %v], PI gain %v",
					trial, v, res.Lo, res.Hi, exact.Gain)
			}
		}
	}
}
