package selfishmining

import (
	"math"
	"strings"
	"testing"
)

// nonDefaultKernels lists every variant name except the default Jacobi.
func nonDefaultKernels() []string { return KernelVariants()[1:] }

// TestKernelVariantsCertifySameERRev: the kernel variants change the solve
// trajectory, never the answer — every variant must certify bitwise the
// same ERRev bracket as the Jacobi default, across families and
// (p, γ) anchor points. The binary search consumes only exact sign
// certificates, so the midpoint sequences coincide exactly.
func TestKernelVariantsCertifySameERRev(t *testing.T) {
	anchors := []struct{ p, gamma float64 }{{0.25, 0.5}, {0.3, 0.9}}
	for _, fam := range Models() {
		p := AttackParams{
			Model: fam.Name,
			Depth: fam.DefaultDepth, Forks: fam.DefaultForks, MaxForkLen: fam.DefaultMaxForkLen,
		}
		for _, a := range anchors {
			p.Adversary, p.Switching = a.p, a.gamma
			ref, err := Analyze(p, WithBoundOnly())
			if err != nil {
				t.Fatalf("%s jacobi at (%v, %v): %v", fam.Name, a.p, a.gamma, err)
			}
			for _, kv := range nonDefaultKernels() {
				res, err := Analyze(p, WithKernel(kv), WithBoundOnly())
				if err != nil {
					t.Fatalf("%s kernel %q at (%v, %v): %v", fam.Name, kv, a.p, a.gamma, err)
				}
				if math.Float64bits(res.ERRev) != math.Float64bits(ref.ERRev) ||
					math.Float64bits(res.ERRevUpper) != math.Float64bits(ref.ERRevUpper) {
					t.Errorf("%s kernel %q at (%v, %v): bracket [%v, %v], jacobi [%v, %v]",
						fam.Name, kv, a.p, a.gamma, res.ERRev, res.ERRevUpper, ref.ERRev, ref.ERRevUpper)
				}
			}
		}
	}
}

// TestKernelVariantFullAnalysisAgrees: with strategy extraction on, a
// variant solve must return the same certified bound and a strategy whose
// independently evaluated revenue lands in the same bracket.
func TestKernelVariantFullAnalysisAgrees(t *testing.T) {
	p := smallParams()
	ref, err := Analyze(p)
	if err != nil {
		t.Fatalf("jacobi: %v", err)
	}
	for _, kv := range []string{"gs", "explore32"} {
		res, err := Analyze(p, WithKernel(kv))
		if err != nil {
			t.Fatalf("kernel %q: %v", kv, err)
		}
		if math.Float64bits(res.ERRev) != math.Float64bits(ref.ERRev) {
			t.Errorf("kernel %q: ERRev %v, jacobi %v", kv, res.ERRev, ref.ERRev)
		}
		if math.Abs(res.StrategyERRev-ref.StrategyERRev) > 1e-6 {
			t.Errorf("kernel %q: StrategyERRev %v, jacobi %v", kv, res.StrategyERRev, ref.StrategyERRev)
		}
	}
}

// TestKernelValidation: unknown names fail up front with the valid list;
// documented aliases are accepted.
func TestKernelValidation(t *testing.T) {
	p := smallParams()
	if _, err := Analyze(p, WithKernel("turbo")); err == nil || !strings.Contains(err.Error(), "jacobi") {
		t.Errorf("unknown kernel error %v does not list the valid names", err)
	}
	if err := ValidateKernel("gauss-seidel"); err != nil {
		t.Errorf("ValidateKernel rejected a documented alias: %v", err)
	}
	if err := ValidateKernel("turbo"); err == nil {
		t.Error("ValidateKernel accepted an unknown name")
	}
}

// TestServiceKernelCacheKeys: the result cache keys on the canonical
// variant name — aliases of one variant share an entry, distinct variants
// do not (their Sweeps accounting differs even though the figures agree).
func TestServiceKernelCacheKeys(t *testing.T) {
	svc := newTestService(ServiceConfig{})
	p := smallParams()
	first, info, err := svc.AnalyzeDetailed(p, WithKernel("gs"))
	if err != nil {
		t.Fatalf("gs: %v", err)
	}
	if info.Cached {
		t.Error("first gs call reported Cached")
	}
	aliased, info, err := svc.AnalyzeDetailed(p, WithKernel("gauss-seidel"))
	if err != nil {
		t.Fatalf("gauss-seidel: %v", err)
	}
	if !info.Cached {
		t.Error("alias \"gauss-seidel\" missed the \"gs\" cache entry")
	}
	equalAnalyses(t, "alias vs canonical", first, aliased)
	if _, info, err = svc.AnalyzeDetailed(p, WithKernel("sor")); err != nil {
		t.Fatalf("sor: %v", err)
	} else if info.Cached {
		t.Error("sor was served from the gs cache entry")
	}
	if st := svc.Stats(); st.Solves != 2 {
		t.Errorf("Solves = %d, want 2 (gs solved once, sor once)", st.Solves)
	}
	if _, _, err := svc.AnalyzeDetailed(p, WithKernel("turbo")); err == nil {
		t.Error("service accepted an unknown kernel")
	}
}

// TestSweepKernelMatchesDefaultFigure: a sweep under a non-default kernel
// reproduces the default sweep's figure bitwise — same certified values at
// every grid point.
func TestSweepKernelMatchesDefaultFigure(t *testing.T) {
	base := SweepOptions{
		Gamma:      0.5,
		PGrid:      []float64{0.1, 0.25},
		Configs:    []AttackConfig{{Depth: 2, Forks: 1}},
		MaxForkLen: 3,
		TreeWidth:  3,
		Epsilon:    1e-3,
	}
	ref, err := Sweep(base)
	if err != nil {
		t.Fatalf("default sweep: %v", err)
	}
	withGS := base
	withGS.Kernel = "gs"
	fig, err := Sweep(withGS)
	if err != nil {
		t.Fatalf("gs sweep: %v", err)
	}
	if len(fig.Series) != len(ref.Series) {
		t.Fatalf("series count %d, want %d", len(fig.Series), len(ref.Series))
	}
	for i, s := range fig.Series {
		for j, v := range s.Values {
			if math.Float64bits(v) != math.Float64bits(ref.Series[i].Values[j]) {
				t.Errorf("series %q point %d: %v, default %v", s.Name, j, v, ref.Series[i].Values[j])
			}
		}
	}
	bad := base
	bad.Kernel = "turbo"
	if _, err := Sweep(bad); err == nil {
		t.Error("sweep accepted an unknown kernel")
	}
}
