package core

import (
	"math"
	"testing"

	"repro/internal/solve"
)

func mustModel(t *testing.T, p Params) *Model {
	t.Helper()
	m, err := NewModel(p)
	if err != nil {
		t.Fatalf("NewModel(%v): %v", p, err)
	}
	return m
}

// exact materializes m at its own chain parameters for the exact oracle.
func exact(t *testing.T, m *Model) solve.Model {
	t.Helper()
	p := m.Params()
	e, err := solve.Materialize(m, p.P, p.Gamma)
	if err != nil {
		t.Fatalf("Materialize(%v): %v", p, err)
	}
	return e
}

// TestModelIsValidMDP runs full structural validation (probabilities sum to
// one, destinations in range, every state has an action) on several
// configurations, for both interior and boundary (p, γ).
func TestModelIsValidMDP(t *testing.T) {
	configs := []Params{
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 4},
		{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4},
		{P: 0.1, Gamma: 0.25, Depth: 2, Forks: 2, MaxLen: 3},
		{P: 0, Gamma: 0, Depth: 2, Forks: 1, MaxLen: 2},
		{P: 1, Gamma: 1, Depth: 2, Forks: 1, MaxLen: 2},
		{P: 0.3, Gamma: 0.5, Depth: 3, Forks: 1, MaxLen: 3},
	}
	for _, p := range configs {
		t.Run(p.String(), func(t *testing.T) {
			if _, err := solve.Materialize(mustModel(t, p), p.P, p.Gamma); err != nil {
				t.Errorf("model invalid: %v", err)
			}
		})
	}
}

// TestMiningTransitionsInitial hand-checks the nature move from the initial
// state of the d=1, f=1 model: σ=1, adversary starts fork (1,1) with
// probability p, honest block pending with probability 1−p.
func TestMiningTransitionsInitial(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 4}
	m := mustModel(t, p)
	raw := m.RawTransitions(m.Initial(), 0, nil)
	if len(raw) != 2 {
		t.Fatalf("got %d transitions from initial state, want 2", len(raw))
	}
	s := m.Codec().NewState()
	var sawAdv, sawHon bool
	for _, r := range raw {
		pr := forkLaws[r.Kind](p.P, p.Gamma, int(r.Sigma))
		m.Codec().Decode(r.Dst, s)
		switch r.Kind {
		case KindAdvMine:
			sawAdv = true
			if math.Abs(pr-0.3) > 1e-12 {
				t.Errorf("adversary win probability = %v, want 0.3 (sigma=1)", pr)
			}
			if s.Phase != AdvTurn || s.ForkLen(1, 1, 1) != 1 {
				t.Errorf("adversary successor wrong: %v", s)
			}
		case KindHonMine:
			sawHon = true
			if math.Abs(pr-0.7) > 1e-12 {
				t.Errorf("honest win probability = %v, want 0.7", pr)
			}
			if s.Phase != PendingHonest || s.ForkLen(1, 1, 1) != 0 {
				t.Errorf("honest successor wrong: %v", s)
			}
		}
		if r.RA != 0 || r.RH != 0 {
			t.Errorf("mining transition carries rewards ra=%d rh=%d, want none", r.RA, r.RH)
		}
	}
	if !sawAdv || !sawHon {
		t.Errorf("missing branches: adv=%v hon=%v", sawAdv, sawHon)
	}
}

// TestSigmaCountsFreshForkPerDepth checks σ at the initial state of d=3,
// f=2: three fresh-fork targets, no nonempty forks.
func TestSigmaCountsFreshForkPerDepth(t *testing.T) {
	p := Params{P: 0.2, Gamma: 0.5, Depth: 3, Forks: 2, MaxLen: 3}
	m := mustModel(t, p)
	raw := m.RawTransitions(m.Initial(), 0, nil)
	// d fresh-fork targets + 1 honest branch.
	if len(raw) != 4 {
		t.Fatalf("got %d transitions, want 4", len(raw))
	}
	for _, r := range raw {
		if r.Sigma != 3 {
			t.Errorf("sigma = %d, want 3", r.Sigma)
		}
	}
	var total float64
	for _, r := range raw {
		total += forkLaws[r.Kind](p.P, p.Gamma, int(r.Sigma))
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", total)
	}
}

// TestForkCapWastesAttempt: a fork at MaxLen still counts toward σ but its
// extension leaves the state's fork lengths unchanged.
func TestForkCapWastesAttempt(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 2}
	m := mustModel(t, p)
	c := m.Codec()
	s := c.NewState()
	s.SetForkLen(1, 1, 1, 2) // at cap
	s.Phase = Mining
	raw := m.RawTransitions(c.Encode(s), 0, nil)
	dst := c.NewState()
	for _, r := range raw {
		if r.Kind != KindAdvMine {
			continue
		}
		c.Decode(r.Dst, dst)
		if dst.ForkLen(1, 1, 1) != 2 {
			t.Errorf("capped fork grew to %d", dst.ForkLen(1, 1, 1))
		}
		if dst.Phase != AdvTurn {
			t.Errorf("phase = %v, want adversary", dst.Phase)
		}
	}
}

// TestPendingHonestRace hand-checks the d=1, f=1 race: with a withheld
// block and a pending honest block, release(1,1,1) must branch γ / 1−γ;
// the win finalizes one adversary block, the loss one honest block.
func TestPendingHonestRace(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.25, Depth: 1, Forks: 1, MaxLen: 4}
	m := mustModel(t, p)
	c := m.Codec()
	s := c.NewState()
	s.SetForkLen(1, 1, 1, 1)
	s.Phase = PendingHonest
	sIdx := c.Encode(s)

	if got := m.NumActions(sIdx); got != 2 {
		t.Fatalf("NumActions = %d, want 2 (mine + one release)", got)
	}
	raw := m.RawTransitions(sIdx, 1, nil)
	if len(raw) != 2 {
		t.Fatalf("race should have 2 branches, got %d", len(raw))
	}
	dst := c.NewState()
	var sawWin, sawLose bool
	for _, r := range raw {
		c.Decode(r.Dst, dst)
		switch r.Kind {
		case KindRaceWin:
			sawWin = true
			if pr := forkLaws[r.Kind](p.P, p.Gamma, int(r.Sigma)); math.Abs(pr-0.25) > 1e-12 {
				t.Errorf("win probability %v, want 0.25", pr)
			}
			// d=1: the revealed block is immediately permanent.
			if r.RA != 1 || r.RH != 0 {
				t.Errorf("win rewards ra=%d rh=%d, want 1,0", r.RA, r.RH)
			}
			if dst.ForkLen(1, 1, 1) != 0 || dst.Phase != Mining {
				t.Errorf("win successor wrong: %v", dst)
			}
		case KindRaceLose:
			sawLose = true
			if pr := forkLaws[r.Kind](p.P, p.Gamma, int(r.Sigma)); math.Abs(pr-0.75) > 1e-12 {
				t.Errorf("lose probability %v, want 0.75", pr)
			}
			if r.RA != 0 || r.RH != 1 {
				t.Errorf("lose rewards ra=%d rh=%d, want 0,1", r.RA, r.RH)
			}
			// The pending honest block lands; the withheld fork shifts out
			// of the d=1 window.
			if dst.ForkLen(1, 1, 1) != 0 || dst.Phase != Mining {
				t.Errorf("lose successor wrong: %v", dst)
			}
		default:
			t.Errorf("unexpected kind %d in race", r.Kind)
		}
	}
	if !sawWin || !sawLose {
		t.Errorf("missing race branches: win=%v lose=%v", sawWin, sawLose)
	}
}

// TestOvertakeOutright: with a fork of length 2 at depth 1 and a pending
// honest block, release(1,1,2) beats the extended chain outright (k > i).
func TestOvertakeOutright(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0, Depth: 1, Forks: 1, MaxLen: 4}
	m := mustModel(t, p)
	c := m.Codec()
	s := c.NewState()
	s.SetForkLen(1, 1, 1, 2)
	s.Phase = PendingHonest
	sIdx := c.Encode(s)
	// Actions: mine, release k=1 (race), release k=2 (outright).
	if got := m.NumActions(sIdx); got != 3 {
		t.Fatalf("NumActions = %d, want 3", got)
	}
	raw := m.RawTransitions(sIdx, 2, nil)
	if len(raw) != 1 || raw[0].Kind != KindSure {
		t.Fatalf("outright overtake should be a single sure transition, got %+v", raw)
	}
	if raw[0].RA != 2 || raw[0].RH != 0 {
		t.Errorf("rewards ra=%d rh=%d, want 2,0 (both revealed blocks final at d=1)", raw[0].RA, raw[0].RH)
	}
	dst := c.NewState()
	c.Decode(raw[0].Dst, dst)
	if dst.ForkLen(1, 1, 1) != 0 || dst.Phase != Mining {
		t.Errorf("successor wrong: %v", dst)
	}
}

// TestReleaseShiftsOwnersAndForks checks the d=3 bookkeeping of a k=i race
// win: owners shift by δ=1, deep forks carry over, the released row's slot
// is consumed.
func TestReleaseShiftsOwnersAndForks(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 3, Forks: 2, MaxLen: 4}
	m := mustModel(t, p)
	c := m.Codec()
	s := c.NewState()
	// Row 2 holds the fork to be released (length 3) and a sibling fork
	// (length 2) that must carry over; row 3 holds a fork whose root falls
	// out of the window after the release. Owners: depth1=honest,
	// depth2=adversary.
	s.SetForkLen(2, 2, 1, 3)
	s.SetForkLen(2, 2, 2, 2)
	s.SetForkLen(2, 3, 1, 1)
	s.O[0] = Honest
	s.O[1] = Adversary
	s.Phase = AdvTurn
	sIdx := c.Encode(s)

	// Find the release(i=2,j=1,k=2) action.
	var relIdx int
	for a := 1; a < m.NumActions(sIdx); a++ {
		if i, j, k := m.Release(sIdx, a); i == 2 && j == 1 && k == 2 {
			relIdx = a
			break
		}
	}
	if relIdx == 0 {
		t.Fatalf("release(i=2,j=1,k=2) not found among actions")
	}
	raw := m.RawTransitions(sIdx, relIdx, nil)
	if len(raw) != 1 || raw[0].Kind != KindSure {
		t.Fatalf("adversary-turn overtake should be sure, got %+v", raw)
	}
	// δ = k−i+1 = 1. Old depth-2 block (adversary) moves to depth 3 = d:
	// finalized, ra=1. Old tip (honest) is orphaned: no reward.
	if raw[0].RA != 1 || raw[0].RH != 0 {
		t.Errorf("rewards ra=%d rh=%d, want 1,0", raw[0].RA, raw[0].RH)
	}
	dst := c.NewState()
	c.Decode(raw[0].Dst, dst)
	// New owners: depths 1..2 = adversary (k=2 revealed blocks).
	if dst.O[0] != Adversary || dst.O[1] != Adversary {
		t.Errorf("new owners = %v, want [a a]", dst.O)
	}
	// δ = 1, so new row 3 inherits old row 2: the released slot (j=1) is
	// consumed, the sibling fork (j=2, length 2) carries over. The old
	// row-3 fork's root sinks to depth 4 > d and is dropped. The remainder
	// (3−2 = 1 block) rides on the new tip.
	if got := dst.ForkLen(2, 1, 1); got != 1 {
		t.Errorf("remainder fork length = %d, want 1", got)
	}
	if got := dst.ForkLen(2, 2, 1); got != 0 || dst.ForkLen(2, 2, 2) != 0 {
		t.Errorf("row 2 should be fresh, got %v", dst.C)
	}
	if got := dst.ForkLen(2, 3, 1); got != 0 {
		t.Errorf("consumed slot should be empty, got %d", got)
	}
	if got := dst.ForkLen(2, 3, 2); got != 2 {
		t.Errorf("carried sibling fork length = %d, want 2", got)
	}
	if dst.Phase != Mining {
		t.Errorf("phase = %v, want mining", dst.Phase)
	}
}

// TestLandPendingFinalizesWindowTail: at d=2 the block at depth 1 moves to
// depth 2 = d when an honest block lands, finalizing it for its owner.
func TestLandPendingFinalizesWindowTail(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4}
	m := mustModel(t, p)
	c := m.Codec()
	s := c.NewState()
	s.O[0] = Adversary
	s.SetForkLen(1, 1, 1, 2)
	s.Phase = PendingHonest
	raw := m.RawTransitions(c.Encode(s), 0, nil)
	if len(raw) != 1 {
		t.Fatalf("landing should be deterministic, got %d transitions", len(raw))
	}
	if raw[0].RA != 1 || raw[0].RH != 0 {
		t.Errorf("rewards ra=%d rh=%d, want 1,0 (adversary block leaves window)", raw[0].RA, raw[0].RH)
	}
	dst := c.NewState()
	c.Decode(raw[0].Dst, dst)
	if dst.O[0] != Honest {
		t.Errorf("new tip owner = %d, want honest", dst.O[0])
	}
	if dst.ForkLen(1, 1, 1) != 0 || dst.ForkLen(1, 2, 1) != 2 {
		t.Errorf("fork shift wrong: %v", dst.C)
	}
}

// TestRewardsBounded: along every transition of a small model,
// ra + rh <= MaxLen (at most one fork of ≤ l blocks finalizes per step,
// plus window spill bounded by the same release).
func TestRewardsBounded(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 2, MaxLen: 3}
	m := mustModel(t, p)
	var buf []Raw
	for s := 0; s < m.NumStates(); s++ {
		for a := 0; a < m.NumActions(s); a++ {
			buf = m.RawTransitions(s, a, buf[:0])
			for _, r := range buf {
				if int(r.RA)+int(r.RH) > p.MaxLen {
					t.Fatalf("state %d action %d: ra+rh = %d exceeds l=%d", s, a, int(r.RA)+int(r.RH), p.MaxLen)
				}
			}
		}
	}
}

// honestEquivalentPolicy releases fork (1,1) immediately whenever it holds a
// block, at adversary decision points, and otherwise keeps mining. Its
// expected relative revenue is exactly p: the released stream and the honest
// stream win mining races in ratio p : (1−p), and no other fork ever
// publishes.
func honestEquivalentPolicy(m *Model) []int {
	c := m.Codec()
	s := c.NewState()
	policy := make([]int, m.NumStates())
	for idx := range policy {
		c.Decode(idx, s)
		if s.Phase == AdvTurn && s.ForkLen(m.Params().Forks, 1, 1) >= 1 {
			policy[idx] = 1 // first enumerated release is (i=1, j=1, k=1)
		}
	}
	return policy
}

// TestHonestEquivalentPolicyERRevIsP is an exact model-level invariant from
// the paper's system model: an adversary that immediately publishes every
// tip-fork block earns relative revenue p, for every γ.
func TestHonestEquivalentPolicyERRevIsP(t *testing.T) {
	for _, gamma := range []float64{0, 0.5, 1} {
		for _, pr := range []float64{0.1, 0.3} {
			p := Params{P: pr, Gamma: gamma, Depth: 2, Forks: 1, MaxLen: 3}
			m := mustModel(t, p)
			policy := honestEquivalentPolicy(m)
			got, err := exact(t, m).ERRev(policy)
			if err != nil {
				t.Fatalf("ERRev(%v): %v", p, err)
			}
			if math.Abs(got-pr) > 1e-8 {
				t.Errorf("p=%v gamma=%v: ERRev = %v, want %v", pr, gamma, got, pr)
			}
		}
	}
}

// TestNeverReleaseERRevIsZero: a strategy that never publishes earns nothing.
func TestNeverReleaseERRevIsZero(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 3}
	m := mustModel(t, p)
	policy := make([]int, m.NumStates()) // all zeros: always mine
	got, err := exact(t, m).ERRev(policy)
	if err != nil {
		t.Fatalf("ERRev: %v", err)
	}
	if math.Abs(got) > 1e-9 {
		t.Errorf("ERRev = %v, want 0", got)
	}
}

// TestModelUnichainProperty: under the always-mine policy the initial state
// must be reachable from every reachable state (the paper's ergodicity
// argument: d consecutive honest landings reset the window).
func TestModelUnichainProperty(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 2}
	m := exact(t, mustModel(t, p))
	policy := make([]int, len(m))
	// Depth-first search from each state along positive-probability edges
	// of the induced chain must reach state 0.
	for start := range m {
		if !reaches(m, policy, start, 0) {
			t.Fatalf("state %d cannot reach the initial state under always-mine", start)
		}
	}
}

// reaches reports whether the chain policy induces on m leads from state
// from to state to along positive-probability edges.
func reaches(m solve.Model, policy []int, from, to int) bool {
	seen := make([]bool, len(m))
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s == to {
			return true
		}
		for _, tr := range m[s][policy[s]] {
			if tr.Prob > 0 && !seen[tr.Dst] {
				seen[tr.Dst] = true
				stack = append(stack, tr.Dst)
			}
		}
	}
	return false
}

// TestCloneIndependence: clones share no mutable scratch.
func TestCloneIndependence(t *testing.T) {
	p := Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 3}
	m := mustModel(t, p)
	c := m.Clone()
	// Interleaved use must not corrupt either.
	r1 := m.RawTransitions(0, 0, nil)
	r2 := c.RawTransitions(0, 0, nil)
	if len(r1) != len(r2) {
		t.Errorf("clone transitions differ: %d vs %d", len(r1), len(r2))
	}
}
