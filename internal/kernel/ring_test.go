package kernel

import "testing"

// ringSource is a larger fixture for the batch tests: n states on a ring.
// Action 0 advances, paying an adversary block w.p. p and an honest block
// otherwise; action 1 jumps home to state 0 paying an honest block surely.
// Multiple states and transitions per row give the sweeps real work while
// staying unichain for any p in (0, 1).
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
