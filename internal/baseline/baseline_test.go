package baseline

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func TestHonestERRev(t *testing.T) {
	tests := []struct {
		p       float64
		want    float64
		wantErr bool
	}{
		{0, 0, false},
		{0.3, 0.3, false},
		{1, 1, false},
		{-0.1, 0, true},
		{1.1, 0, true},
		{math.NaN(), 0, true},
	}
	for _, tt := range tests {
		got, err := HonestERRev(tt.p)
		if (err != nil) != tt.wantErr {
			t.Errorf("HonestERRev(%v) error = %v, wantErr %v", tt.p, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("HonestERRev(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

// TestEyalSirerChainMatchesClosedForm anchors the exact gain ratio of the
// SM1 chain to the published SM1 revenue formula across a grid of (p, γ).
func TestEyalSirerChainMatchesClosedForm(t *testing.T) {
	for _, p := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.45} {
		for _, gamma := range []float64{0, 0.25, 0.5, 0.75, 1} {
			want, err := EyalSirerClosedForm(p, gamma)
			if err != nil {
				t.Fatalf("closed form(%v, %v): %v", p, gamma, err)
			}
			// maxLead=400 keeps the birth-death truncation error (p/(1-p))^maxLead
			// far below the comparison tolerance even at p=0.45.
			got, err := eyalSirerChainERRev(p, gamma, 400)
			if err != nil {
				t.Fatalf("chain(%v, %v): %v", p, gamma, err)
			}
			if math.Abs(got-want) > 1e-7 {
				t.Errorf("p=%v gamma=%v: chain %v vs closed form %v", p, gamma, got, want)
			}
		}
	}
}

// TestEyalSirerKnownThresholds: SM1 beats honest mining above the published
// profitability thresholds — p > 1/3 at γ=0 and p > 1/4 at γ=0.5 — and not
// below them.
func TestEyalSirerKnownThresholds(t *testing.T) {
	tests := []struct {
		p, gamma float64
		beats    bool
	}{
		{0.30, 0, false},
		{0.35, 0, true},
		{0.24, 0.5, false},
		{0.26, 0.5, true},
		{0.05, 1, true}, // at γ=1 SM1 is profitable for any p > 0
	}
	for _, tt := range tests {
		rev, err := eyalSirerChainERRev(tt.p, tt.gamma, 0)
		if err != nil {
			t.Fatalf("chain(%v, %v): %v", tt.p, tt.gamma, err)
		}
		if got := rev > tt.p; got != tt.beats {
			t.Errorf("p=%v gamma=%v: revenue %v, beats honest = %v, want %v", tt.p, tt.gamma, rev, got, tt.beats)
		}
	}
}

func TestEyalSirerValidation(t *testing.T) {
	if _, err := EyalSirerClosedForm(0.6, 0.5); err == nil {
		t.Error("closed form should reject p >= 0.5")
	}
	if _, err := eyalSirerChainERRev(0.3, 2, 0); err == nil {
		t.Error("chain should reject gamma > 1")
	}
	if _, err := eyalSirerChainERRev(0.3, 0.5, 2); err == nil {
		t.Error("chain should reject tiny maxLead")
	}
	if got, err := eyalSirerChainERRev(0, 0.5, 0); err != nil || got != 0 {
		t.Errorf("p=0: got %v, %v; want 0, nil", got, err)
	}
}

func TestSingleTreeValidation(t *testing.T) {
	bad := []SingleTreeParams{
		{P: -0.1, Gamma: 0.5, MaxDepth: 4, MaxWidth: 5},
		{P: 0.3, Gamma: 1.5, MaxDepth: 4, MaxWidth: 5},
		{P: 0.3, Gamma: 0.5, MaxDepth: 0, MaxWidth: 5},
		{P: 0.3, Gamma: 0.5, MaxDepth: 4, MaxWidth: 0},
		{P: 0.3, Gamma: 0.5, MaxDepth: 99, MaxWidth: 5},
		{P: 0.3, Gamma: 0.5, MaxDepth: 9, MaxWidth: 5},
		{P: 0.3, Gamma: 0.5, MaxDepth: 2, MaxWidth: 32},
		{P: 0.3, Gamma: 0.5, MaxDepth: 2, MaxWidth: 256},
		{P: 0.3, Gamma: 0.5, MaxDepth: 4, MaxWidth: 31}, // 32^4·5 states
		{P: 0.3, Gamma: 0.5, MaxDepth: 6, MaxWidth: 10}, // 11^6·7 states
	}
	for _, p := range bad {
		if _, err := SingleTreeERRev(p); err == nil {
			t.Errorf("SingleTreeERRev(%+v) accepted invalid params", p)
		}
	}
}

func TestSingleTreeEdgeCases(t *testing.T) {
	if got, err := SingleTreeERRev(SingleTreeParams{P: 0, Gamma: 0.5, MaxDepth: 4, MaxWidth: 5}); err != nil || got != 0 {
		t.Errorf("p=0: got %v, %v; want 0, nil", got, err)
	}
	if got, err := SingleTreeERRev(SingleTreeParams{P: 1, Gamma: 0.5, MaxDepth: 4, MaxWidth: 5}); err != nil || got != 1 {
		t.Errorf("p=1: got %v, %v; want 1, nil", got, err)
	}
}

// TestSingleTreeERRevInUnitInterval: property over random parameters.
func TestSingleTreeERRevInUnitInterval(t *testing.T) {
	property := func(seedP, seedG uint8) bool {
		p := SingleTreeParams{
			P:        float64(seedP%100) / 100,
			Gamma:    float64(seedG%101) / 100,
			MaxDepth: 3,
			MaxWidth: 3,
		}
		got, err := SingleTreeERRev(p)
		if err != nil {
			return false
		}
		return got >= 0 && got <= 1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleTreeMonotoneInGamma: a better network position cannot hurt a
// race-based strategy.
func TestSingleTreeMonotoneInGamma(t *testing.T) {
	prev := -1.0
	for _, gamma := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got, err := SingleTreeERRev(SingleTreeParams{P: 0.3, Gamma: gamma, MaxDepth: 4, MaxWidth: 5})
		if err != nil {
			t.Fatalf("gamma=%v: %v", gamma, err)
		}
		if got < prev-1e-9 {
			t.Errorf("ERRev not monotone in gamma: %v after %v", got, prev)
		}
		prev = got
	}
}

// TestSingleTreeMonotoneInP: more resource, more revenue.
func TestSingleTreeMonotoneInP(t *testing.T) {
	prev := -1.0
	for _, p := range []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3} {
		got, err := SingleTreeERRev(SingleTreeParams{P: p, Gamma: 0.5, MaxDepth: 4, MaxWidth: 5})
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if got < prev-1e-9 {
			t.Errorf("ERRev not monotone in p: %v after %v", got, prev)
		}
		prev = got
	}
}

// TestSingleTreeWiderTreeHelps: more width means more mining targets and a
// faster-growing tree, so revenue cannot decrease.
func TestSingleTreeWiderTreeHelps(t *testing.T) {
	narrow, err := SingleTreeERRev(SingleTreeParams{P: 0.3, Gamma: 0.5, MaxDepth: 4, MaxWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := SingleTreeERRev(SingleTreeParams{P: 0.3, Gamma: 0.5, MaxDepth: 4, MaxWidth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if wide < narrow-1e-9 {
		t.Errorf("wider tree lost revenue: width 5 %v < width 1 %v", wide, narrow)
	}
}

// TestSingleTreeStateInvariant: occupancy of level v+1 requires occupancy
// of level v in every reachable state (children need parents).
func TestSingleTreeStateInvariant(t *testing.T) {
	st, err := NewSingleTree(4, 3, PublishThreatened)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range st.states {
		for v := 1; v < st.depth; v++ {
			if s.w[v] > 0 && s.w[v-1] == 0 {
				t.Fatalf("reachable state with orphan level: %+v", s)
			}
		}
		d := depth(s, st.depth)
		if d > 0 && int(s.h) >= d {
			t.Fatalf("reachable state where public chain caught the tree without racing: %+v", s)
		}
	}
}

// TestSingleTreeShapeBounds: the largest shapes within the bounds explore
// (σ and the level occupancies stay within their bytes), and an unknown
// publish rule is refused.
func TestSingleTreeShapeBounds(t *testing.T) {
	for _, shape := range [][2]int{{1, 31}, {2, 31}, {4, 14}, {8, 2}} {
		if _, err := NewSingleTree(shape[0], shape[1], PublishThreatened); err != nil {
			t.Errorf("depth %d width %d: %v", shape[0], shape[1], err)
		}
	}
	if _, err := NewSingleTree(3, 3, PublishTie+1); err == nil {
		t.Error("unknown publish rule accepted")
	}
}

// materializeTree resolves st at (p, γ) into a sparse transition matrix
// and the per-state expected one-step rewards r_A and r_H.
func materializeTree(st *SingleTree, p, gamma float64) (*linalg.CSR, []float64, []float64, error) {
	n := st.NumStates()
	var entries []linalg.Entry
	ra, rh := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		den := 1 - p + p*float64(st.sigma[i])
		for _, e := range st.edges[st.first[i]:st.first[i+1]] {
			pr := e.prob(p, gamma, den)
			entries = append(entries, linalg.Entry{Row: i, Col: int(e.dst), Val: pr})
			ra[i] += pr * float64(e.ra)
			rh[i] += pr * float64(e.rh)
		}
	}
	chain, err := linalg.NewCSR(n, n, entries)
	return chain, ra, rh, err
}

// TestSingleTreeMatchesGainBias holds the renewal-reward pass to the
// average-reward evaluation equations of the same chain, solved densely by
// linalg.GainBias, within 1e-14 under both publish rules (PublishTie is no
// model family, so the families' exact oracle does not reach it).
func TestSingleTreeMatchesGainBias(t *testing.T) {
	for _, rule := range []PublishRule{PublishThreatened, PublishTie} {
		for _, shape := range [][2]int{{1, 4}, {3, 3}, {4, 2}, {2, 5}} {
			st, err := NewSingleTree(shape[0], shape[1], rule)
			if err != nil {
				t.Fatal(err)
			}
			for _, gamma := range []float64{0, 0.25, 0.5, 1} {
				for _, p := range []float64{0.05, 0.2, 0.3, 0.45, 0.7, 0.9} {
					chain, ra, rh, err := materializeTree(st, p, gamma)
					if err != nil {
						t.Fatal(err)
					}
					for k, v := range chain.Val {
						if v < -1e-9 {
							t.Fatalf("rule %d shape %v p=%v gamma=%v: entry %d is %v", rule, shape, p, gamma, k, v)
						}
					}
					for s, sum := range chain.RowSums() {
						if math.Abs(sum-1) > 1e-9 {
							t.Fatalf("rule %d shape %v p=%v gamma=%v: row %d sums to %v", rule, shape, p, gamma, s, sum)
						}
					}
					gA, _, err := linalg.GainBias(chain, ra, 0)
					if err != nil {
						t.Fatal(err)
					}
					gH, _, err := linalg.GainBias(chain, rh, 0)
					if err != nil {
						t.Fatal(err)
					}
					got, err := st.ERRev(p, gamma)
					if err != nil {
						t.Fatal(err)
					}
					if want := gA / (gA + gH); math.Abs(got-want) > 1e-14 {
						t.Errorf("rule %d depth %d width %d p=%v gamma=%v: renewal pass %.17g, gain ratio %.17g",
							rule, shape[0], shape[1], p, gamma, got, want)
					}
				}
			}
		}
	}
}

// TestSingleTreePublishRules: the Eyal–Sirer threatened rule dominates the
// literal tie rule (it converts γ-races into sure wins), and at the paper's
// operating point it beats honest mining, making it a meaningful baseline.
func TestSingleTreePublishRules(t *testing.T) {
	for _, p := range []float64{0.15, 0.25, 0.3} {
		tie, err := SingleTreeERRev(SingleTreeParams{P: p, Gamma: 0.5, MaxDepth: 4, MaxWidth: 5, Rule: PublishTie})
		if err != nil {
			t.Fatalf("tie rule p=%v: %v", p, err)
		}
		thr, err := SingleTreeERRev(SingleTreeParams{P: p, Gamma: 0.5, MaxDepth: 4, MaxWidth: 5, Rule: PublishThreatened})
		if err != nil {
			t.Fatalf("threatened rule p=%v: %v", p, err)
		}
		if thr < tie-1e-9 {
			t.Errorf("p=%v: threatened %v below tie %v", p, thr, tie)
		}
	}
	thr, err := SingleTreeERRev(SingleTreeParams{P: 0.3, Gamma: 0.5, MaxDepth: 4, MaxWidth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0.3 {
		t.Errorf("ES-style single-tree at p=0.3 gamma=0.5 = %v, want above honest 0.3", thr)
	}
}

// eyalSirerChainERRev evaluates the SM1 strategy of EyalSirerClosedForm by
// building its Markov chain explicitly (lead states 0, 0', 1, 2, ..., maxLead) and
// dividing the adversary's gain by the total block gain, each from one
// dense linalg.GainBias solve. maxLead truncates the birth-death
// chain; the truncation error is O(p^maxLead) (use >= 50 for 1e-9 accuracy
// at p <= 0.45). Pass maxLead <= 0 for the default of 64.
//
// Chain structure (lead = private − public):
//
//	lead 0:  adversary finds (p) → lead 1; honest finds (1−p) → honest
//	         block commits (rh=1), stay at 0.
//	lead 1:  honest finds → publish the withheld block: tie race state 0'.
//	lead 2:  honest finds → publish everything, adversary commits both
//	         blocks (ra=2) → 0.
//	lead n≥3: honest finds → reveal one block; the deepest private block
//	         effectively commits (ra=1) → n−1.
//	state 0' (tie): adversary finds on its branch (p): ra=2 → 0; honest
//	         finds on the adversary branch (γ(1−p)): ra=1, rh=1 → 0;
//	         honest finds on its own branch ((1−γ)(1−p)): rh=2 → 0.
func eyalSirerChainERRev(p, gamma float64, maxLead int) (float64, error) {
	if p < 0 || p >= 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("baseline: p = %v outside [0, 1)", p)
	}
	if gamma < 0 || gamma > 1 || math.IsNaN(gamma) {
		return 0, fmt.Errorf("baseline: gamma = %v outside [0, 1]", gamma)
	}
	if p == 0 {
		return 0, nil
	}
	if maxLead <= 0 {
		maxLead = 64
	}
	if maxLead < 3 {
		return 0, fmt.Errorf("baseline: maxLead = %d too small, need >= 3", maxLead)
	}
	// State layout: 0 → lead 0, 1 → tie state 0', k+1 → lead k (k = 1..maxLead).
	n := maxLead + 2
	idxLead := func(k int) int { return k + 1 }
	var entries []linalg.Entry
	ra := make([]float64, n)
	rh := make([]float64, n)
	add := func(from, to int, prob, a, h float64) {
		entries = append(entries, linalg.Entry{Row: from, Col: to, Val: prob})
		ra[from] += prob * a
		rh[from] += prob * h
	}
	q := 1 - p
	// lead 0.
	add(0, idxLead(1), p, 0, 0)
	add(0, 0, q, 0, 1)
	// tie state 0'.
	add(1, 0, p, 2, 0)
	add(1, 0, gamma*q, 1, 1)
	add(1, 0, (1-gamma)*q, 0, 2)
	// lead 1.
	add(idxLead(1), idxLead(2), p, 0, 0)
	add(idxLead(1), 1, q, 0, 0)
	// lead 2.
	add(idxLead(2), idxLead(3), p, 0, 0)
	add(idxLead(2), 0, q, 2, 0)
	// lead k >= 3.
	for k := 3; k <= maxLead; k++ {
		if k < maxLead {
			add(idxLead(k), idxLead(k+1), p, 0, 0)
		} else {
			// Truncation: a further adversary block is treated as an
			// immediate commit at the same lead (negligible for large caps).
			add(idxLead(k), idxLead(k), p, 1, 0)
		}
		add(idxLead(k), idxLead(k-1), q, 1, 0)
	}
	chain, err := linalg.NewCSR(n, n, entries)
	if err != nil {
		return 0, fmt.Errorf("baseline: building SM1 chain: %w", err)
	}
	gA, _, err := linalg.GainBias(chain, ra, 0)
	if err != nil {
		return 0, fmt.Errorf("baseline: SM1 adversary gain: %w", err)
	}
	gH, _, err := linalg.GainBias(chain, rh, 0)
	if err != nil {
		return 0, fmt.Errorf("baseline: SM1 honest gain: %w", err)
	}
	if gA+gH <= 0 {
		return 0, fmt.Errorf("baseline: degenerate SM1 chain: block rate %v", gA+gH)
	}
	return gA / (gA + gH), nil
}
