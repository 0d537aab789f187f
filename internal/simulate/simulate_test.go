package simulate

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

func analyzed(t *testing.T, p core.Params) (*core.Model, []int, float64) {
	t.Helper()
	m, err := core.NewModel(p)
	if err != nil {
		t.Fatalf("NewModel(%v): %v", p, err)
	}
	comp, err := core.Compile(p)
	if err != nil {
		t.Fatalf("Compile(%v): %v", p, err)
	}
	res, err := analysis.Analyze(t.Context(), comp, analysis.Options{Epsilon: 1e-4})
	if err != nil {
		t.Fatalf("Analyze(%v): %v", p, err)
	}
	return m, res.Strategy, res.StrategyERRev
}

// TestSimulationMatchesExactERRev is the end-to-end integration check: the
// optimal strategy computed by Algorithm 1, replayed on the physical block
// tree for many steps, must reproduce the exact stationary ERRev within
// Monte-Carlo error. Every step also self-checks ledger and window
// consistency between the tree and the MDP mirror.
func TestSimulationMatchesExactERRev(t *testing.T) {
	configs := []core.Params{
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 4},
		{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4},
		{P: 0.25, Gamma: 0.75, Depth: 2, Forks: 2, MaxLen: 3},
		{P: 0.3, Gamma: 0, Depth: 2, Forks: 1, MaxLen: 4},
	}
	for _, p := range configs {
		t.Run(p.String(), func(t *testing.T) {
			m, policy, want := analyzed(t, p)
			st, err := Run(m, policy, 400000, 12345)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			tol := 5*st.StdErr + 1e-3
			if math.Abs(st.ERRev-want) > tol {
				t.Errorf("empirical ERRev %.5f vs exact %.5f (tol %.5f, stderr %.5f)", st.ERRev, want, tol, st.StdErr)
			}
		})
	}
}

// TestSimulationHonestPolicy: the never-release policy yields zero
// adversary revenue and an all-honest chain.
func TestSimulationHonestPolicy(t *testing.T) {
	p := core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 3}
	m, err := core.NewModel(p)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	policy := make([]int, m.NumStates())
	st, err := Run(m, policy, 50000, 7)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.AdvBlocks != 0 {
		t.Errorf("never-release policy committed %d adversary blocks", st.AdvBlocks)
	}
	if st.HonestBlocks == 0 {
		t.Error("no honest blocks committed in 50000 steps")
	}
	if st.Releases != 0 || st.Races != 0 {
		t.Errorf("never-release policy released %d times, raced %d times", st.Releases, st.Races)
	}
}

// TestSimulationDeterministicPerSeed: identical seeds give identical stats.
func TestSimulationDeterministicPerSeed(t *testing.T) {
	p := core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 3}
	m, policy, _ := analyzed(t, p)
	a, err := Run(m, policy, 20000, 99)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(m, policy, 20000, 99)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *a != *b {
		t.Errorf("same seed, different stats:\n%+v\n%+v", a, b)
	}
}

// TestSimulationRaceAccounting: with γ=1 every race is won; with γ=0 every
// race is lost.
func TestSimulationRaceAccounting(t *testing.T) {
	for _, gamma := range []float64{0, 1} {
		p := core.Params{P: 0.3, Gamma: gamma, Depth: 2, Forks: 1, MaxLen: 4}
		m, policy, _ := analyzed(t, p)
		st, err := Run(m, policy, 100000, 3)
		if err != nil {
			t.Fatalf("gamma=%v: %v", gamma, err)
		}
		switch gamma {
		case 0:
			if st.RaceWins != 0 {
				t.Errorf("gamma=0 won %d races", st.RaceWins)
			}
		case 1:
			if st.RaceWins != st.Races {
				t.Errorf("gamma=1 won %d of %d races", st.RaceWins, st.Races)
			}
		}
	}
}

// TestSimulationValidation: bad inputs error.
func TestSimulationValidation(t *testing.T) {
	p := core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 2}
	m, err := core.NewModel(p)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	if _, err := Run(m, []int{0}, 100, 1); err == nil {
		t.Error("short policy accepted")
	}
	policy := make([]int, m.NumStates())
	if _, err := Run(m, policy, 0, 1); err == nil {
		t.Error("zero steps accepted")
	}
}

// TestSimulationChainGrows: the main chain makes progress under the
// optimal attack (liveness is preserved, only chain quality degrades).
func TestSimulationChainGrows(t *testing.T) {
	p := core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 4}
	m, policy, _ := analyzed(t, p)
	st, err := Run(m, policy, 50000, 5)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.ChainLength < 5000 {
		t.Errorf("chain length %d after 50000 steps: liveness broken?", st.ChainLength)
	}
	if st.ERRev <= p.P-0.02 {
		t.Errorf("optimal attack ERRev %v clearly below honest %v", st.ERRev, p.P)
	}
}
