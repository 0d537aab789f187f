package solve

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
)

func TestMeanPayoffChooseLoop(t *testing.T) {
	c := chooseLoop().compile(t)
	res, err := c.MeanPayoffCtx(context.Background(), 0.3, kernel.Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("MeanPayoff: %v", err)
	}
	if math.Abs(res.Gain-0.7) > 1e-9 {
		t.Errorf("gain = %v, want 0.7", res.Gain)
	}
	if pol := c.GreedyPolicy(0.3); pol[0] != 1 {
		t.Errorf("policy picks action %d, want 1 (high)", pol[0])
	}
}

func TestMeanPayoffStayOrCycle(t *testing.T) {
	c := stayOrCycle().compile(t)
	res, err := c.MeanPayoffCtx(context.Background(), 0.5, kernel.Options{Tol: 1e-9})
	if err != nil {
		t.Fatalf("MeanPayoff: %v", err)
	}
	if math.Abs(res.Gain-1) > 1e-7 {
		t.Errorf("gain = %v, want 1", res.Gain)
	}
	if pol := c.GreedyPolicy(0.5); pol[0] != 1 {
		t.Errorf("policy picks action %d in state 0, want 1 (cycle)", pol[0])
	}
	if res.Lo > 1 || res.Hi < 1 {
		t.Errorf("bracket [%v, %v] does not contain the true gain 1", res.Lo, res.Hi)
	}
}

func TestMeanPayoffPeriodicChain(t *testing.T) {
	// Pure 2-cycle with rewards 1, 0 at β = 0.5: gain 0.5. Undamped VI
	// would oscillate; damping must still converge.
	c := fixture{{sure(1, 2, 0)}, {sure(0, 0, 0)}}.compile(t)
	res, err := c.MeanPayoffCtx(context.Background(), 0.5, kernel.Options{Tol: 1e-9})
	if err != nil {
		t.Fatalf("MeanPayoff: %v", err)
	}
	if math.Abs(res.Gain-0.5) > 1e-7 {
		t.Errorf("gain = %v, want 0.5", res.Gain)
	}
}

func TestMeanPayoffSignOnly(t *testing.T) {
	c := chooseLoop().compile(t)
	res, err := c.MeanPayoffCtx(context.Background(), 0.3, kernel.Options{SignOnly: true})
	if err != nil {
		t.Fatalf("MeanPayoff: %v", err)
	}
	if !res.SignKnown() || res.Lo <= 0 {
		t.Errorf("sign-only solve should certify positive gain, bracket [%v, %v]", res.Lo, res.Hi)
	}
	// At β = 1.2 both rewards are negative (−0.2 and −1.2).
	res, err = c.MeanPayoffCtx(context.Background(), 1.2, kernel.Options{SignOnly: true})
	if err != nil {
		t.Fatalf("MeanPayoff: %v", err)
	}
	if !res.SignKnown() || res.Hi >= 0 {
		t.Errorf("sign-only solve should certify negative gain, bracket [%v, %v]", res.Lo, res.Hi)
	}
}

func TestMeanPayoffWarmStart(t *testing.T) {
	c := stayOrCycle().compile(t)
	cold, err := c.MeanPayoffCtx(context.Background(), 0.5, kernel.Options{Tol: 1e-9})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	warm, err := c.MeanPayoffCtx(context.Background(), 0.5, kernel.Options{Tol: 1e-9, KeepValues: true})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Iters > cold.Iters {
		t.Errorf("warm start took %d sweeps, cold took %d; expected warm <= cold", warm.Iters, cold.Iters)
	}
	if math.Abs(warm.Gain-cold.Gain) > 1e-7 {
		t.Errorf("warm gain %v != cold gain %v", warm.Gain, cold.Gain)
	}
}

func TestMeanPayoffIterationLimit(t *testing.T) {
	res, err := stayOrCycle().compile(t).MeanPayoffCtx(context.Background(), 0.5, kernel.Options{Tol: 1e-12, MaxIter: 2})
	if err == nil {
		t.Fatal("expected a non-convergence error")
	}
	if res == nil || res.Converged || res.Iters != 2 {
		t.Error("non-converged result should still carry the partial bracket of both sweeps")
	}
}

func TestMeanPayoffBadWarmStart(t *testing.T) {
	if err := chooseLoop().compile(t).SetValues([]float64{1, 2}); err == nil {
		t.Fatal("expected error for mis-sized warm-start vector, got nil")
	}
}

func TestPolicyIterationChooseLoop(t *testing.T) {
	res, err := chooseLoop().exact(t).PolicyIteration(Beta(0.3), 0)
	if err != nil {
		t.Fatalf("PolicyIteration: %v", err)
	}
	if math.Abs(res.Gain-0.7) > 1e-10 {
		t.Errorf("gain = %v, want 0.7", res.Gain)
	}
}

func TestPolicyIterationStayOrCycle(t *testing.T) {
	res, err := stayOrCycle().exact(t).PolicyIteration(Beta(0.5), 0)
	if err != nil {
		t.Fatalf("PolicyIteration: %v", err)
	}
	if math.Abs(res.Gain-1) > 1e-10 {
		t.Errorf("gain = %v, want 1", res.Gain)
	}
	if res.Policy[0] != 1 {
		t.Errorf("policy picks %d, want 1", res.Policy[0])
	}
}

// TestRVIAgreesWithPolicyIteration is the central solver cross-check: on
// random unichain MDPs the compiled kernel's value iteration must find the
// exact gain computed by Howard policy iteration, its certified bracket
// must contain that gain, and a sign-only solve (what a binary-search step
// runs) may only certify the exact gain's sign.
func TestRVIAgreesWithPolicyIteration(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := randomUnichain(r, 2+r.Intn(10), 3)
		beta := r.Float64()
		exact, err := f.exact(t).PolicyIteration(Beta(beta), 0)
		if err != nil {
			return false
		}
		iter, err := f.compile(t).MeanPayoffCtx(context.Background(), beta, kernel.Options{Tol: 1e-9})
		if err != nil {
			return false
		}
		if iter.Lo > exact.Gain+1e-12 || iter.Hi < exact.Gain-1e-12 {
			return false
		}
		sign, err := f.compile(t).MeanPayoffCtx(context.Background(), beta, kernel.Options{Tol: 1e-6, SignOnly: true})
		if err != nil || (sign.Lo > 0 && exact.Gain <= 0) || (sign.Hi < 0 && exact.Gain >= 0) {
			return false
		}
		return math.Abs(iter.Gain-exact.Gain) < 1e-6
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// exactERRev is the oracle's stationary ERRev of a policy.
func exactERRev(t *testing.T, f fixture, policy []int) float64 {
	t.Helper()
	errev, err := f.exact(t).ERRev(policy)
	if err != nil {
		t.Fatalf("ERRev: %v", err)
	}
	return errev
}

func TestEvalPolicyExactMatchesIterative(t *testing.T) {
	f := stayOrCycle()
	policy := []int{1, 0}
	gain, _, err := f.exact(t).EvalPolicy(Beta(0.5), policy)
	if err != nil {
		t.Fatalf("EvalPolicy: %v", err)
	}
	if math.Abs(gain-1) > 1e-10 {
		t.Errorf("gain = %v, want 1", gain)
	}
	errev, err := f.compile(t).EvalERRevCtx(context.Background(), policy, kernel.Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("EvalERRev: %v", err)
	}
	if want := exactERRev(t, f, policy); math.Abs(errev-want) > 1e-8 {
		t.Errorf("iterative ERRev %v, exact %v", errev, want)
	}
	if math.Abs(errev-0.75) > 1e-8 {
		t.Errorf("ERRev of the cycle = %v, want 6/8", errev)
	}
}

func TestEvalPolicyIterativeSuboptimal(t *testing.T) {
	errev, err := stayOrCycle().compile(t).EvalERRevCtx(context.Background(), []int{0, 0}, kernel.Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("EvalERRev: %v", err)
	}
	if math.Abs(errev-2.0/3) > 1e-8 {
		t.Errorf("ERRev of the stay policy = %v, want 2/3", errev)
	}
}

func TestEvalPolicyWrongLength(t *testing.T) {
	if _, err := stayOrCycle().compile(t).EvalERRevCtx(context.Background(), []int{0}, kernel.Options{}); err == nil {
		t.Fatal("expected error for short policy, got nil")
	}
}

func TestGainRatio(t *testing.T) {
	// 2-cycle paying an adversary block on 0->1 and an honest block on
	// 1->0: ERRev = gain(r_A) / gain(r_A + r_H) = 0.5.
	f := fixture{{sure(1, 1, 0)}, {sure(0, 0, 1)}}
	ratio, err := f.compile(t).EvalERRevCtx(context.Background(), []int{0, 0}, kernel.Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("EvalERRev: %v", err)
	}
	if math.Abs(ratio-0.5) > 1e-9 {
		t.Errorf("ratio = %v, want 0.5", ratio)
	}
	if want := exactERRev(t, f, []int{0, 0}); math.Abs(ratio-want) > 1e-9 {
		t.Errorf("ratio = %v, exact %v", ratio, want)
	}
}

func TestGainRatioZeroDenominator(t *testing.T) {
	// No transition makes a block permanent: the total gain is zero.
	f := fixture{{sure(0, 0, 0)}}
	if _, err := f.compile(t).EvalERRevCtx(context.Background(), []int{0}, kernel.Options{Tol: 1e-10}); err == nil {
		t.Fatal("expected error for zero denominator gain, got nil")
	}
}

func TestGreedyPolicy(t *testing.T) {
	c := chooseLoop().compile(t)
	if err := c.SetValues([]float64{0}); err != nil {
		t.Fatal(err)
	}
	if policy := c.GreedyPolicy(0.3); policy[0] != 1 {
		t.Errorf("greedy policy = %v, want action 1", policy)
	}
}

// withLaws is a fixture under a replaced law table.
type withLaws struct {
	fixture
	laws []kernel.ProbLaw
}

func (w withLaws) Laws() []kernel.ProbLaw { return w.laws }

// TestMaterializeRejectsMalformedSources: Materialize refuses every
// source that is not an MDP, and the policy evaluators refuse a policy
// that does not pick one available action per state.
func TestMaterializeRejectsMalformedSources(t *testing.T) {
	constant := func(v float64) []kernel.ProbLaw {
		return []kernel.ProbLaw{func(_, _ float64, _ int) float64 { return v }}
	}
	cases := []struct {
		name   string
		src    kernel.Source
		policy []int // nil: the source itself must be refused
	}{
		{"no states", fixture{}, nil},
		{"state without actions", fixture{{sure(0, 0, 0)}, {}}, nil},
		{"action without successors", fixture{{{}}}, nil},
		{"destination out of range", fixture{{sure(1, 0, 0)}}, nil},
		{"law beyond the table", withLaws{fixture{{sure(0, 0, 0)}}, constant(1)}, nil},
		{"negative probability", withLaws{fixture{{{{0, 1, 0, 0}}}}, constant(-1)}, nil},
		{"NaN probability", withLaws{fixture{{{{0, 1, 0, 0}}}}, constant(math.NaN())}, nil},
		{"infinite probability", withLaws{fixture{{{{0, 1, 0, 0}}}}, constant(math.Inf(1))}, nil},
		{"probabilities miss 1", fixture{{{{0, 128, 0, 0}}}}, nil},
		{"policy of the wrong length", stayOrCycle(), []int{1}},
		{"policy action out of range", stayOrCycle(), []int{2, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Materialize(tc.src, 0.5, 0.5)
			if tc.policy == nil {
				if err == nil {
					t.Fatal("malformed source accepted")
				}
				return
			}
			if err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			if _, _, err := m.EvalPolicy(Beta(0.5), tc.policy); err == nil {
				t.Error("EvalPolicy accepted the policy")
			}
			if _, err := m.ERRev(tc.policy); err == nil {
				t.Error("ERRev accepted the policy")
			}
		})
	}
}
