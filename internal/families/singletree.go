package families

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/kernel"
)

// singletreeFamily is the Eyal–Sirer single-tree baseline expressed as an
// attack-model family: the adversary grows one private tree of bounded
// depth and per-level width rooted at the fork point and publishes by the
// fixed Eyal–Sirer rule, so every state has exactly one action and the MDP
// is a Markov chain. Running Algorithm 1 on it binary-searches β to the
// chain's exact expected relative revenue — which package baseline also
// computes, by a renewal-reward pass over its own exploration of the
// chain, giving an end-to-end cross-validation anchor for the whole
// kernel/analysis stack (see the families tests).
//
// Shape mapping: Depth must be 1 (unused), Forks is the tree width bound
// per level, MaxLen the tree depth bound.
type singletreeFamily struct{}

func init() { Register(singletreeFamily{}) }

// Structural bounds keeping the explored chain small and the σ annotation
// within the kernel's 8-bit field (σ ≤ 1 + width·(depth−1) ≤ 255).
// singletreeMaxStates additionally bounds the JOINT shape: the reachable
// chain grows combinatorially in (width, depth) — (f+1)^l·(l+1) dense
// upper bound — so wide-AND-deep trees are rejected up front rather than
// explored without limit (Validate), with a hard cap during exploration
// as a backstop.
const (
	singletreeMaxDepth  = 8
	singletreeMaxWidth  = 31
	singletreeMaxStates = 1 << 18
)

// singletreeStateBound returns the dense upper bound (f+1)^l · (l+1) on
// the explored chain, saturating at singletreeMaxStates+1 to avoid
// overflow.
func singletreeStateBound(l, f int) int {
	bound := l + 1
	for i := 0; i < l; i++ {
		bound *= f + 1
		if bound > singletreeMaxStates {
			return singletreeMaxStates + 1
		}
	}
	return bound
}

func (singletreeFamily) Name() string { return "singletree" }

func (singletreeFamily) Description() string {
	return "the Eyal-Sirer single-tree baseline as a decision-free MDP family, cross-validated against an exact renewal-reward chain analysis"
}

func (singletreeFamily) ShapeDoc() ShapeDoc {
	return ShapeDoc{
		Depth:  "must be 1 (the single tree roots at the fork point)",
		Forks:  fmt.Sprintf("tree width bound per level, 1..%d", singletreeMaxWidth),
		MaxLen: fmt.Sprintf("tree depth bound, 1..%d", singletreeMaxDepth),
	}
}

func (singletreeFamily) DefaultShape() (int, int, int) { return 1, 5, 4 }

func (singletreeFamily) Validate(p core.Params) error {
	if p.P < 0 || p.P >= 1 || math.IsNaN(p.P) {
		return fmt.Errorf("families: singletree adversary resource P = %v outside [0, 1) (P = 1 makes the chain non-ergodic)", p.P)
	}
	if p.Gamma < 0 || p.Gamma > 1 || math.IsNaN(p.Gamma) {
		return fmt.Errorf("families: singletree switching probability Gamma = %v outside [0, 1]", p.Gamma)
	}
	if p.Depth != 1 {
		return fmt.Errorf("families: singletree depth d = %d, need 1 (the family grows one tree at the fork point)", p.Depth)
	}
	if p.Forks < 1 || p.Forks > singletreeMaxWidth {
		return fmt.Errorf("families: singletree width f = %d, need 1..%d", p.Forks, singletreeMaxWidth)
	}
	if p.MaxLen < 1 || p.MaxLen > singletreeMaxDepth {
		return fmt.Errorf("families: singletree tree depth l = %d, need 1..%d", p.MaxLen, singletreeMaxDepth)
	}
	if singletreeStateBound(p.MaxLen, p.Forks) > singletreeMaxStates {
		return fmt.Errorf("families: singletree shape f=%d l=%d induces more than %d states ((f+1)^l·(l+1) bound); shrink the width or depth",
			p.Forks, p.MaxLen, singletreeMaxStates)
	}
	return nil
}

func (f singletreeFamily) NumStates(p core.Params) (int, error) {
	src, err := f.Source(p)
	if err != nil {
		return 0, err
	}
	return src.NumStates(), nil
}

func (f singletreeFamily) Source(p core.Params) (kernel.Source, error) {
	if err := f.Validate(p); err != nil {
		return nil, err
	}
	return newSingletreeSource(p.MaxLen, p.Forks)
}

// Probability laws of the single-tree chain. Mining races follow the same
// (p, σ)-model as the fork family; publications that tie the public chain
// race with γ.
const (
	stAdvMine uint8 = iota
	stHonMine
	stRaceWin
	stRaceLose
)

var singletreeLaws = []kernel.ProbLaw{
	stAdvMine:  func(p, _ float64, sigma int) float64 { return p / (1 - p + p*float64(sigma)) },
	stHonMine:  func(p, _ float64, sigma int) float64 { return (1 - p) / (1 - p + p*float64(sigma)) },
	stRaceWin:  func(p, gamma float64, sigma int) float64 { return gamma * (1 - p) / (1 - p + p*float64(sigma)) },
	stRaceLose: func(p, gamma float64, sigma int) float64 { return (1 - gamma) * (1 - p) / (1 - p + p*float64(sigma)) },
}

// stState is a node of the single-tree chain: per-level tree occupancy
// (levels 1..l in w[0..l-1]) and the public blocks mined since the fork
// point. It deliberately mirrors baseline.treeState — the two
// implementations are kept independent so their agreement is a real
// cross-check.
type stState struct {
	w [singletreeMaxDepth]uint8
	h uint8
}

// singletreeSource explores the reachable chain once at construction and
// serves it as a kernel source with one action per state.
type singletreeSource struct {
	l, f     int
	states   []stState
	trans    [][]kernel.Raw
	maxSigma int
}

func newSingletreeSource(l, f int) (*singletreeSource, error) {
	src := &singletreeSource{l: l, f: f}
	index := map[stState]int{}
	add := func(s stState) int {
		if i, ok := index[s]; ok {
			return i
		}
		i := len(src.states)
		index[s] = i
		src.states = append(src.states, s)
		return i
	}
	add(stState{})
	for i := 0; i < len(src.states); i++ {
		// Backstop to Validate's (f+1)^l·(l+1) pre-check: exploration can
		// never run away even if the bound's derivation rots.
		if len(src.states) > singletreeMaxStates {
			return nil, fmt.Errorf("families: singletree exploration exceeded %d states for f=%d l=%d", singletreeMaxStates, f, l)
		}
		s := src.states[i]
		var raws []kernel.Raw
		for _, sc := range src.successors(s) {
			sc.raw.Dst = add(sc.state)
			raws = append(raws, sc.raw)
		}
		src.trans = append(src.trans, raws)
	}
	return src, nil
}

// releaseExploration frees the exploration arrays once the kernel has
// consumed the source; only the scalar fields BlockRate needs (maxSigma
// and the depth bound) stay live. Compile retains src.BlockRate, so
// without this the structure cache would hold a second copy of the whole
// transition structure per entry.
func (src *singletreeSource) releaseExploration() { src.states, src.trans = nil, nil }

// stSucc pairs a successor state with its not-yet-indexed raw transition.
type stSucc struct {
	state stState
	raw   kernel.Raw
}

// depth returns the deepest occupied level of the tree.
func (src *singletreeSource) depth(s stState) int {
	for v := src.l; v >= 1; v-- {
		if s.w[v-1] > 0 {
			return v
		}
	}
	return 0
}

// successors enumerates the chain transitions out of s under the
// Eyal–Sirer publication rule (publish everything as soon as the public
// chain is within one block of the tree depth; a full catch-up at depth 1
// triggers a γ-race). Each adversary proof target is emitted as its own
// transition with the per-target law, so multiplicities need no law-side
// factors.
func (src *singletreeSource) successors(s stState) []stSucc {
	l, f := src.l, src.f
	// targets[v] = parents at level v (0 = fork-point root) that can spawn
	// a child at level v+1.
	var targets [singletreeMaxDepth]int
	sigma := 0
	for v := 0; v < l; v++ {
		occ := 1
		if v > 0 {
			occ = int(s.w[v-1])
		}
		if int(s.w[v]) < f && occ > 0 {
			targets[v] = occ
			sigma += occ
		}
	}
	if sigma > src.maxSigma {
		src.maxSigma = sigma
	}
	sg := uint8(sigma)
	var out []stSucc

	// Adversary grows the tree at level v+1 (one transition per target).
	for v := 0; v < l; v++ {
		ns := s
		ns.w[v]++
		for t := 0; t < targets[v]; t++ {
			out = append(out, stSucc{state: ns, raw: kernel.Raw{Kind: stAdvMine, Sigma: sg}})
		}
	}

	// Honest miners extend the public chain.
	d := src.depth(s)
	newH := int(s.h) + 1
	switch {
	case d == 0:
		// Nothing withheld: the honest block is final; re-fork at the tip.
		return append(out, stSucc{raw: kernel.Raw{Kind: stHonMine, Sigma: sg, RH: uint8(newH)}})
	case d >= 2 && newH == d-1:
		// Eyal–Sirer: the lead shrank to one; publish everything and win
		// outright (the tree's longest path exceeds the public chain).
		return append(out, stSucc{raw: kernel.Raw{Kind: stHonMine, Sigma: sg, RA: uint8(d)}})
	case newH == d:
		// Full catch-up: publish and race.
		return append(out,
			stSucc{raw: kernel.Raw{Kind: stRaceWin, Sigma: sg, RA: uint8(d)}},
			stSucc{raw: kernel.Raw{Kind: stRaceLose, Sigma: sg, RH: uint8(newH)}},
		)
	}
	// Public chain still behind: keep withholding.
	ns := s
	ns.h++
	return append(out, stSucc{state: ns, raw: kernel.Raw{Kind: stHonMine, Sigma: sg}})
}

func (src *singletreeSource) NumStates() int         { return len(src.states) }
func (src *singletreeSource) NumActions(int) int     { return 1 }
func (src *singletreeSource) Laws() []kernel.ProbLaw { return singletreeLaws }

func (src *singletreeSource) RawTransitions(s, a int, buf []kernel.Raw) []kernel.Raw {
	return append(buf, src.trans[s]...)
}

// BlockRate is a conservative lower bound on the per-step permanent-block
// rate: honest wins arrive at rate at least (1−p)/(1−p+p·σmax) and at most
// l of them separate consecutive finalization events, each of which pays
// at least one block. An underestimate here only costs solver sweeps (the
// binary search's sign decisions are exact regardless).
func (src *singletreeSource) BlockRate(p, _ float64) float64 {
	return (1 - p) / ((1 - p + p*float64(src.maxSigma)) * float64(src.l))
}
