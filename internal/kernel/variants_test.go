package kernel

import (
	"context"
	"math"
	"strings"
	"testing"
)

// ringSource is a larger fixture exercising the tiled fast paths: n states
// on a ring. Action 0 advances, paying an adversary block w.p. p and an
// honest block otherwise; action 1 jumps home to state 0 paying an honest
// block surely. Multiple states and transitions per row give the
// specialized layout, the cache tiling, and the in-place relaxation real
// work while staying unichain for any p in (0, 1).
type ringSource struct{ n int }

func (r ringSource) NumStates() int   { return r.n }
func (ringSource) NumActions(int) int { return 2 }
func (ringSource) Laws() []ProbLaw {
	return []ProbLaw{
		func(_, _ float64, _ int) float64 { return 1 },
		func(p, _ float64, _ int) float64 { return 0.9 * p },
		func(p, _ float64, _ int) float64 { return 0.9 * (1 - p) },
		func(_, _ float64, _ int) float64 { return 0.1 },
	}
}
func (ringSource) BlockRate(_, _ float64) float64 { return 1 }
func (r ringSource) RawTransitions(s, a int, buf []Raw) []Raw {
	if a == 0 {
		// State-dependent rewards keep the model far from symmetric (a
		// symmetric ring converges in one sweep and exercises nothing); the
		// 10% mix into state 0 keeps it aperiodic and fast-mixing.
		next := (s + 1) % r.n
		return append(buf,
			Raw{Dst: next, Kind: 1, RA: uint8(1 + s%3)},
			Raw{Dst: next, Kind: 2, RH: uint8(1 + s%2)},
			Raw{Dst: 0, Kind: 3},
		)
	}
	return append(buf, Raw{Dst: 0, Kind: 0, RH: uint8(1 + s%5)})
}

func compileRing(t *testing.T, n int, p float64) *Compiled {
	t.Helper()
	c, err := Compile(ringSource{n: n}, p, 0.5)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Probabilities are resolved into float32; the row sums carry float32
	// rounding.
	if err := c.CheckStochastic(1e-6); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseVariant(t *testing.T) {
	aliases := map[string]Variant{
		"":             VariantJacobi,
		"default":      VariantJacobi,
		"Jacobi":       VariantJacobi,
		" spec ":       VariantSpec,
		"gauss-seidel": VariantGS,
		"SOR":          VariantSOR,
		"f32":          VariantExplore32,
		"float32":      VariantExplore32,
	}
	for name, want := range aliases {
		if got, err := ParseVariant(name); err != nil || got != want {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// Canonical names round-trip through String.
	for _, name := range VariantNames() {
		v, err := ParseVariant(name)
		if err != nil {
			t.Fatalf("ParseVariant(%q): %v", name, err)
		}
		if v.String() != name {
			t.Errorf("ParseVariant(%q).String() = %q", name, v.String())
		}
	}
	if _, err := ParseVariant("turbo"); err == nil || !strings.Contains(err.Error(), "jacobi") {
		t.Errorf("unknown variant error %v does not list the valid names", err)
	}
}

// TestVariantGainsAgree: every fast variant must certify the Jacobi gain to
// within the solve tolerance — the variants change the trajectory, never
// the certified bracket's meaning.
func TestVariantGainsAgree(t *testing.T) {
	c := compileRing(t, 500, 0.3)
	const tol = 1e-9
	for _, beta := range []float64{0.05, 0.25, 0.4} {
		ref, err := c.MeanPayoff(beta, Options{Tol: tol})
		if err != nil {
			t.Fatalf("jacobi at beta=%v: %v", beta, err)
		}
		for _, v := range []Variant{VariantSpec, VariantGS, VariantSOR, VariantExplore32} {
			res, err := c.MeanPayoffCtx(context.Background(), beta, Options{Tol: tol, Variant: v})
			if err != nil {
				t.Fatalf("%v at beta=%v: %v", v, beta, err)
			}
			if math.Abs(res.Gain-ref.Gain) > 10*tol {
				t.Errorf("%v at beta=%v: gain %v, jacobi %v", v, beta, res.Gain, ref.Gain)
			}
			if res.Lo > res.Hi || !res.Converged {
				t.Errorf("%v at beta=%v: bad result %+v", v, beta, res)
			}
		}
	}
}

// TestSpecMatchesJacobiSweepForSweep: VariantSpec is the same damped Jacobi
// iteration through a specialized kernel, so it must take exactly as many
// sweeps as the default path.
func TestSpecMatchesJacobiSweepForSweep(t *testing.T) {
	c := compileRing(t, 200, 0.35)
	ref, err := c.MeanPayoff(0.2, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.MeanPayoffCtx(context.Background(), 0.2, Options{Tol: 1e-9, Variant: VariantSpec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != ref.Iters {
		t.Errorf("spec took %d sweeps, jacobi %d", res.Iters, ref.Iters)
	}
}

// TestVariantRunLeavesDefaultBitwise is the determinism contract: solving
// with a fast variant (which builds weight caches and scrambles the value
// buffers) must not perturb a subsequent default solve by a single bit.
func TestVariantRunLeavesDefaultBitwise(t *testing.T) {
	c := compileRing(t, 300, 0.3)
	before, err := c.MeanPayoff(0.15, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{VariantSpec, VariantGS, VariantSOR} {
		if _, err := c.MeanPayoffCtx(context.Background(), 0.15, Options{Tol: 1e-9, Variant: v}); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
	if _, err := c.ExploreMeanPayoff32(context.Background(), 0.15, Options{Tol: 1e-9}); err != nil {
		t.Fatal(err)
	}
	after, err := c.MeanPayoff(0.15, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if before.Gain != after.Gain || before.Lo != after.Lo || before.Hi != after.Hi || before.Iters != after.Iters {
		t.Errorf("default solve changed after variant runs: %+v vs %+v", before, after)
	}
}

// TestVariantSignOnlyAgree: sign-only certification (what binary-search
// decisions consume) must match the default kernel's sign.
func TestVariantSignOnlyAgree(t *testing.T) {
	c := compileRing(t, 400, 0.3)
	for _, beta := range []float64{0.1, 0.29, 0.31} {
		ref, err := c.MeanPayoff(beta, Options{Tol: 1e-7, SignOnly: true})
		if err != nil {
			t.Fatalf("jacobi at beta=%v: %v", beta, err)
		}
		for _, v := range []Variant{VariantSpec, VariantGS, VariantSOR} {
			res, err := c.MeanPayoffCtx(context.Background(), beta, Options{Tol: 1e-7, SignOnly: true, Variant: v})
			if err != nil {
				t.Fatalf("%v at beta=%v: %v", v, beta, err)
			}
			refPos, resPos := ref.Lo > 0, res.Lo > 0
			refNeg, resNeg := ref.Hi < 0, res.Hi < 0
			if (refPos && resNeg) || (refNeg && resPos) {
				t.Errorf("%v at beta=%v certified the opposite sign: [%v,%v] vs jacobi [%v,%v]",
					v, beta, res.Lo, res.Hi, ref.Lo, ref.Hi)
			}
		}
	}
}

// TestExplore32PromoteWarmStart: the float32 exploration's promoted vector
// must warm-start an exact solve to the same gain in fewer sweeps than a
// cold solve.
func TestExplore32PromoteWarmStart(t *testing.T) {
	c := compileRing(t, 500, 0.3)
	const beta, tol = 0.2, 1e-9
	cold, err := c.MeanPayoff(beta, Options{Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	er, err := c.ExploreMeanPayoff32(context.Background(), beta, Options{Tol: tol})
	if err != nil {
		t.Fatalf("explore32: %v", err)
	}
	if er.Iters == 0 {
		t.Fatal("explore32 did no sweeps")
	}
	c.PromoteValues32()
	warm, err := c.MeanPayoffCtx(context.Background(), beta, Options{Tol: tol, KeepValues: true, Variant: VariantGS})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Gain-cold.Gain) > 10*tol {
		t.Errorf("warm certified gain %v, cold %v", warm.Gain, cold.Gain)
	}
	if warm.Iters >= cold.Iters {
		t.Errorf("warm exact solve took %d sweeps, cold %d — float32 exploration bought nothing", warm.Iters, cold.Iters)
	}
}

// TestExplore32NonConvergenceIsNotAnError: the exploration pass is advisory
// — running out of budget must hand back the partial result without error
// (the exact solve that follows does the certifying).
func TestExplore32NonConvergenceIsNotAnError(t *testing.T) {
	c := compileRing(t, 500, 0.3)
	er, err := c.ExploreMeanPayoff32(context.Background(), 0.2, Options{Tol: 1e-12, MaxIter: 3})
	if err != nil {
		t.Fatalf("budget exhaustion errored: %v", err)
	}
	if er.Converged {
		t.Error("3 sweeps at Tol=1e-12 reported convergence")
	}
	if er.Iters != 3 {
		t.Errorf("Iters = %d, want 3", er.Iters)
	}
}

// TestExplore32Canceled: the float32 loop honors its context at sweep
// boundaries like every other solve.
func TestExplore32Canceled(t *testing.T) {
	c := compileRing(t, 100, 0.3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ExploreMeanPayoff32(ctx, 0.2, Options{Tol: 1e-9}); err == nil {
		t.Error("pre-canceled exploration succeeded")
	}
}

// TestVariantWorkersBitwiseOnCertPath: certification sweeps of the fast
// paths reduce their bracket exactly, so the certified gain of a variant
// run must not depend on the worker count.
func TestVariantWorkersBitwiseOnCertPath(t *testing.T) {
	base := compileRing(t, 300, 0.3)
	var gains []float64
	for _, w := range []int{1, 4} {
		c := base.Clone()
		c.SetWorkers(w)
		res, err := c.MeanPayoffCtx(context.Background(), 0.2, Options{Tol: 1e-9, Variant: VariantSpec})
		if err != nil {
			t.Fatal(err)
		}
		gains = append(gains, res.Gain)
	}
	if gains[0] != gains[1] {
		t.Errorf("spec gain differs across worker counts: %v vs %v", gains[0], gains[1])
	}
}
