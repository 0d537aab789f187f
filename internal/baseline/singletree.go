package baseline

import (
	"fmt"
	"math"
)

// PublishRule selects when the single-tree baseline reveals its tree.
type PublishRule uint8

// Publish rules. The paper describes the baseline as "exactly following"
// the Eyal–Sirer attack but states the trigger as "whenever the length of
// the main chain catches up with the depth of the private tree"; the two
// readings differ, so both are implemented.
const (
	// PublishThreatened is the Eyal–Sirer rule: publish everything as soon
	// as the public chain is within one block of the tree depth (an
	// outright win for depth ≥ 2; from depth 1 the public catch-up is a tie
	// and triggers a γ-race). This is the default.
	PublishThreatened PublishRule = iota
	// PublishTie is the literal catch-up reading: publish only when the
	// public chain fully ties the tree depth, always racing with γ.
	PublishTie
)

// SingleTreeParams configures the single-tree selfish mining baseline.
type SingleTreeParams struct {
	// P is the adversary's resource fraction in [0, 1].
	P float64
	// Gamma is the switching probability for tie races in [0, 1].
	Gamma float64
	// MaxDepth is the maximal private tree depth (the paper uses l = 4).
	MaxDepth int
	// MaxWidth is the maximal number of tree nodes per level (the paper
	// uses f = 5).
	MaxWidth int
	// Rule selects the publication trigger (default PublishThreatened).
	Rule PublishRule
}

// Validate checks parameter ranges and the tree shape
// (ValidateSingleTreeShape).
func (p SingleTreeParams) Validate() error {
	if err := checkPoint(p.P, p.Gamma); err != nil {
		return err
	}
	return ValidateSingleTreeShape(p.MaxDepth, p.MaxWidth)
}

func checkPoint(p, gamma float64) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("baseline: resource fraction P = %v outside [0, 1]", p)
	}
	if gamma < 0 || gamma > 1 || math.IsNaN(gamma) {
		return fmt.Errorf("baseline: switching probability Gamma = %v outside [0, 1]", gamma)
	}
	return nil
}

// Shape bounds of the single-tree chain. Occupancies are array-keyed
// bytes, and the reachable chain grows combinatorially in (width, depth),
// so the joint shape is bounded by its dense state count
// (width+1)^depth·(depth+1): every level holds 0..width nodes and the
// public chain stays below the tree depth.
const (
	maxTreeDepth  = 8
	maxTreeWidth  = 31
	maxTreeStates = 1 << 18
)

// ValidateSingleTreeShape reports whether the baseline explores trees of
// depth bound maxDepth and width bound maxWidth: depth 1..8, width 1..31,
// and (width+1)^depth·(depth+1) ≤ 2^18.
func ValidateSingleTreeShape(maxDepth, maxWidth int) error {
	if maxDepth < 1 || maxDepth > maxTreeDepth {
		return fmt.Errorf("baseline: single-tree depth %d, need 1..%d", maxDepth, maxTreeDepth)
	}
	if maxWidth < 1 || maxWidth > maxTreeWidth {
		return fmt.Errorf("baseline: single-tree width %d, need 1..%d", maxWidth, maxTreeWidth)
	}
	bound := maxDepth + 1
	for i := 0; i < maxDepth; i++ {
		bound *= maxWidth + 1
		if bound > maxTreeStates {
			return fmt.Errorf("baseline: single-tree width %d depth %d allows more than %d states ((width+1)^depth·(depth+1)); shrink the width or depth",
				maxWidth, maxDepth, maxTreeStates)
		}
	}
	return nil
}

// treeState is a node of the baseline Markov chain: the per-level occupancy
// of the private tree (levels 1..MaxDepth) and the number of public blocks
// mined since the fork point. The strategy is fixed, so there are no
// decisions: the chain transitions by mining outcomes only.
type treeState struct {
	w [maxTreeDepth]uint8
	h uint8
}

// edgeKind is the symbolic probability law of one transition; with the
// state's σ (the adversary's mining targets) it resolves at (p, γ) to
//
//	advMine   mult·p/(1−p+p·σ)
//	honest    (1−p)/(1−p+p·σ)
//	raceWin   γ·(1−p)/(1−p+p·σ)
//	raceLose  (1−γ)·(1−p)/(1−p+p·σ)
//
// the same (p, k)-mining race as the attack MDP: every tree node (and the
// fork-point root) that can still take a child is a target.
type edgeKind uint8

const (
	advMine edgeKind = iota
	honest
	raceWin
	raceLose
)

// treeEdge is one transition of the chain. dst 0 is the empty tree, which
// only publications and final honest blocks return to; every other edge
// grows the tree or the public chain by one block.
type treeEdge struct {
	dst    int32
	kind   edgeKind
	mult   uint8 // adversary targets on the grown level (advMine only)
	ra, rh uint8 // blocks the transition makes permanent
}

// prob resolves the edge's law; den is 1−p+p·σ of its source state.
func (e treeEdge) prob(p, gamma, den float64) float64 {
	switch e.kind {
	case advMine:
		return float64(e.mult) * p / den
	case honest:
		return (1 - p) / den
	case raceWin:
		return gamma * (1 - p) / den
	default:
		return (1 - gamma) * (1 - p) / den
	}
}

// SingleTree is the baseline's Markov chain for one shape (depth, width,
// publication rule), explored once with every transition's law kept
// symbolic, so one exploration serves every (p, γ). The reachable set
// depends on neither: for p in (0, 1) every law but the race pair is
// positive, and both race edges return to the empty tree. A SingleTree is
// immutable and safe for concurrent use.
type SingleTree struct {
	depth, width int
	rule         PublishRule
	states       []treeState // exploration order; states[0] is the empty tree
	sigma        []uint8     // per state: the adversary's mining targets
	first        []int32     // state i's edges are edges[first[i]:first[i+1]]
	edges        []treeEdge
}

// NewSingleTree explores the chain of the given shape breadth-first from
// the empty tree. Every edge that does not return to the empty tree adds
// one block to the tree or the public chain, so breadth-first order ranks
// states by Σw + h and such an edge always leads to a later index; the
// exploration checks this for every edge, because ERRev's single backward
// pass relies on it.
func NewSingleTree(maxDepth, maxWidth int, rule PublishRule) (*SingleTree, error) {
	if err := ValidateSingleTreeShape(maxDepth, maxWidth); err != nil {
		return nil, err
	}
	if rule > PublishTie {
		return nil, fmt.Errorf("baseline: unknown publish rule %d", rule)
	}
	st := &SingleTree{depth: maxDepth, width: maxWidth, rule: rule, states: []treeState{{}}}
	index := map[treeState]int32{{}: 0}
	var succs []treeSucc
	for i := 0; i < len(st.states); i++ {
		var sigma int
		sigma, succs = st.successors(st.states[i], succs[:0])
		st.sigma = append(st.sigma, uint8(sigma))
		st.first = append(st.first, int32(len(st.edges)))
		for _, sc := range succs {
			if sc.state != (treeState{}) {
				j, ok := index[sc.state]
				if !ok {
					j = int32(len(st.states))
					index[sc.state] = j
					st.states = append(st.states, sc.state)
				}
				if int(j) <= i {
					return nil, fmt.Errorf("baseline: single-tree edge %d -> %d does not lead to a later state", i, j)
				}
				sc.edge.dst = j
			}
			st.edges = append(st.edges, sc.edge)
		}
	}
	st.first = append(st.first, int32(len(st.edges)))
	return st, nil
}

// depth returns the deepest occupied level of the tree.
func depth(s treeState, l int) int {
	for v := l; v >= 1; v-- {
		if s.w[v-1] > 0 {
			return v
		}
	}
	return 0
}

// treeSucc is one successor during exploration; edge.dst is set once the
// successor state has an index (the empty tree's is 0).
type treeSucc struct {
	state treeState
	edge  treeEdge
}

// successors appends the transitions out of s to out and returns them
// with the adversary's target count σ. The adversary mines on every tree
// node (and the fork-point root) that can still accept a child: level v+1
// grows with the multiplicity of its parents at level v.
func (st *SingleTree) successors(s treeState, out []treeSucc) (int, []treeSucc) {
	l, f := st.depth, st.width
	sigma := 0
	for v := 0; v < l; v++ {
		occ := 1
		if v > 0 {
			occ = int(s.w[v-1])
		}
		if int(s.w[v]) < f && occ > 0 {
			ns := s
			ns.w[v]++
			out = append(out, treeSucc{state: ns, edge: treeEdge{kind: advMine, mult: uint8(occ)}})
			sigma += occ
		}
	}

	// Honest miners extend the public chain.
	d := depth(s, l)
	newH := s.h + 1
	switch {
	case d == 0:
		// Nothing withheld: the honest block is final; re-fork at the new tip.
		return sigma, append(out, treeSucc{edge: treeEdge{kind: honest, rh: newH}})
	case st.rule == PublishThreatened && d >= 2 && int(newH) == d-1:
		// Eyal–Sirer: the lead shrank to one; publish everything and win
		// outright (the tree's longest path exceeds the public chain).
		return sigma, append(out, treeSucc{edge: treeEdge{kind: honest, ra: uint8(d)}})
	case int(newH) == d:
		// The public chain fully caught up: publish and race.
		return sigma, append(out,
			treeSucc{edge: treeEdge{kind: raceWin, ra: uint8(d)}},
			treeSucc{edge: treeEdge{kind: raceLose, rh: newH}})
	}
	// Public chain still behind: keep withholding.
	ns := s
	ns.h = newH
	return sigma, append(out, treeSucc{state: ns, edge: treeEdge{kind: honest}})
}

// NumStates returns the size of the explored chain.
func (st *SingleTree) NumStates() int { return len(st.states) }

// ERRev returns the exact expected relative revenue of the baseline at
// (p, γ). The chain regenerates at every return to the empty tree, so by
// the renewal-reward theorem ERRev = E[R_A] / (E[R_A] + E[R_H]) over one
// cycle from the empty tree back to it. Both expectations come from one
// backward pass in reverse exploration order,
//
//	V(s) = Σ P(s,s')·(r(s,s') + [s' ≠ ∅]·V(s')),
//
// which is O(transitions) and needs no tolerance. Each state's
// probabilities must sum to 1 within 1e-9. p = 0 gives 0 and p = 1 gives 1
// (honest miners never win a race) without a pass.
func (st *SingleTree) ERRev(p, gamma float64) (float64, error) {
	if err := checkPoint(p, gamma); err != nil {
		return 0, err
	}
	if p == 0 {
		return 0, nil
	}
	if p == 1 {
		return 1, nil
	}
	v := make([][2]float64, len(st.states)) // per state: V_A, V_H
	for i := len(st.states) - 1; i >= 0; i-- {
		den := 1 - p + p*float64(st.sigma[i])
		var sum, va, vh float64
		for _, e := range st.edges[st.first[i]:st.first[i+1]] {
			pr := e.prob(p, gamma, den)
			sum += pr
			ra, rh := float64(e.ra), float64(e.rh)
			if e.dst != 0 {
				ra += v[e.dst][0]
				rh += v[e.dst][1]
			}
			va += pr * ra
			vh += pr * rh
		}
		if math.Abs(sum-1) > 1e-9 {
			return 0, fmt.Errorf("baseline: single-tree state %d: probabilities sum to %v at p=%v gamma=%v", i, sum, p, gamma)
		}
		v[i] = [2]float64{va, vh}
	}
	total := v[0][0] + v[0][1]
	if !(total > 0) {
		return 0, fmt.Errorf("baseline: degenerate single-tree chain: %v blocks per cycle", total)
	}
	return v[0][0] / total, nil
}

// SingleTreeERRev explores the chain of params' shape and evaluates it at
// params' (p, γ) in one call. Callers that evaluate one shape at many
// points should hold a NewSingleTree instead.
func SingleTreeERRev(params SingleTreeParams) (float64, error) {
	if err := params.Validate(); err != nil {
		return 0, err
	}
	st, err := NewSingleTree(params.MaxDepth, params.MaxWidth, params.Rule)
	if err != nil {
		return 0, err
	}
	return st.ERRev(params.P, params.Gamma)
}
