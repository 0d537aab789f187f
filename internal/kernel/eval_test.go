package kernel_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/kernel"
)

// evalShape is one compiled structure the evaluator tests run on.
type evalShape struct {
	model           string
	depth, forks, l int
}

func (s evalShape) String() string {
	return fmt.Sprintf("%s-d%df%dl%d", s.model, s.depth, s.forks, s.l)
}

// evalShapes lists every family's default shape plus the larger fork
// shapes d2f2l4 and d2f2l5, each once.
func evalShapes() []evalShape {
	var shapes []evalShape
	for _, f := range families.All() {
		d, fk, l := f.DefaultShape()
		shapes = append(shapes, evalShape{f.Name(), d, fk, l})
	}
	for _, s := range []evalShape{{families.DefaultName, 2, 2, 4}, {families.DefaultName, 2, 2, 5}} {
		if !slices.Contains(shapes, s) {
			shapes = append(shapes, s)
		}
	}
	return shapes
}

// greedyFor compiles shape at (p, γ) and returns it with the r_β-greedy
// policy of a solve at β — the kind of strategy Algorithm 1 evaluates.
func greedyFor(t *testing.T, s evalShape, p, gamma, beta float64) (*kernel.Compiled, []int) {
	t.Helper()
	c, err := families.Compile(s.model, core.Params{P: p, Gamma: gamma, Depth: s.depth, Forks: s.forks, MaxLen: s.l})
	if err != nil {
		t.Fatalf("%v: Compile: %v", s, err)
	}
	if _, err := c.MeanPayoff(beta, kernel.Options{Tol: 1e-7}); err != nil {
		t.Fatalf("%v: MeanPayoff: %v", s, err)
	}
	return c, c.GreedyPolicy(beta)
}

// TestEvalERRevFusedMatchesTwoPass: the fused evaluator returns bitwise the
// ERRev of the two-pass reference, for every family's default shape and
// two larger fork shapes, serially and on two workers.
func TestEvalERRevFusedMatchesTwoPass(t *testing.T) {
	points := []struct{ p, gamma, beta float64 }{{0.3, 0.5, 0.35}, {0.15, 0.25, 0.16}}
	if testing.Short() {
		points = points[:1]
	}
	for _, s := range evalShapes() {
		for _, pt := range points {
			c, policy := greedyFor(t, s, pt.p, pt.gamma, pt.beta)
			for _, w := range []int{1, 2} {
				c.SetWorkers(w)
				opts := kernel.Options{Tol: 1e-9}
				want, err := c.EvalERRevTwoPass(context.Background(), policy, opts)
				if err != nil {
					t.Fatalf("%v %+v workers=%d: two-pass: %v", s, pt, w, err)
				}
				got, err := c.EvalERRevCtx(context.Background(), policy, opts)
				if err != nil {
					t.Fatalf("%v %+v workers=%d: fused: %v", s, pt, w, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%v %+v workers=%d: fused ERRev %.17g, two-pass %.17g", s, pt, w, got, want)
				}
			}
		}
	}
}

// TestEvalERRevRejectsOutOfRangeAction: a policy entry that names no
// action of its state is an error naming the state and the action, never
// a silently zero-scored row.
func TestEvalERRevRejectsOutOfRangeAction(t *testing.T) {
	c, policy := greedyFor(t, evalShape{families.DefaultName, 2, 1, 4}, 0.3, 0.5, 0.41)
	if _, err := c.EvalERRev(policy, kernel.Options{Tol: 1e-9}); err != nil {
		t.Fatalf("valid policy: %v", err)
	}
	for _, bad := range []int{99, -1} {
		mut := append([]int(nil), policy...)
		mut[0] = bad
		v, err := c.EvalERRev(mut, kernel.Options{Tol: 1e-9})
		if err == nil {
			t.Errorf("policy[0] = %d accepted, ERRev %v", bad, v)
			continue
		}
		if want := fmt.Sprintf("action %d in state 0", bad); !strings.Contains(err.Error(), want) {
			t.Errorf("policy[0] = %d: error %q does not name %q", bad, err, want)
		}
	}
}
