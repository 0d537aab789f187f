package core

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mdp"
)

// TransKind classifies a transition's probability law, so that the same
// compiled structure can be reused for every (p, γ): the probability of a
// transition is a function of its kind (and σ) only. Kinds are indices
// into the fork family's probability-law table (see Laws).
type TransKind = uint8

// Transition kinds of the fork model.
const (
	// KindAdvMine: the adversary wins the mining race on one of σ targets;
	// probability p/(1−p+p·σ).
	KindAdvMine TransKind = iota
	// KindHonMine: the honest miners win; probability (1−p)/(1−p+p·σ).
	KindHonMine
	// KindSure: deterministic, probability 1.
	KindSure
	// KindRaceWin: a revealed fork ties the pending honest block and wins
	// the broadcast race; probability γ.
	KindRaceWin
	// KindRaceLose: the tie race is lost; probability 1−γ.
	KindRaceLose
)

// Raw is a transition with its probability law and block-finalization
// counts, before a concrete (p, γ, β) is applied. It is the kernel's
// transition type; Kind holds the TransKind law index.
type Raw = kernel.Raw

// forkLaws is the fork family's probability-law table, indexed by
// TransKind. The closures mirror the closed forms in the kind comments;
// the compiled kernel evaluates them once per (kind, σ) on every
// SetChainParams.
var forkLaws = []kernel.ProbLaw{
	KindAdvMine:  func(p, _ float64, sigma int) float64 { return p / (1 - p + p*float64(sigma)) },
	KindHonMine:  func(p, _ float64, sigma int) float64 { return (1 - p) / (1 - p + p*float64(sigma)) },
	KindSure:     func(_, _ float64, _ int) float64 { return 1 },
	KindRaceWin:  func(_, gamma float64, _ int) float64 { return gamma },
	KindRaceLose: func(_, gamma float64, _ int) float64 { return 1 - gamma },
}

// RawProb resolves the transition probability of a fork-model transition
// for concrete chain parameters.
func RawProb(r Raw, p, gamma float64) float64 {
	return forkLaws[r.Kind](p, gamma, int(r.Sigma))
}

// RewardMode selects which scalar reward the mdp.Model view exposes.
type RewardMode uint8

// Reward views over the (r_A, r_H) block counters.
const (
	// RewardBeta exposes r_β = r_A − β(r_A + r_H), the paper's Section 3.3
	// reward family.
	RewardBeta RewardMode = iota
	// RewardAdv exposes r_A.
	RewardAdv
	// RewardHon exposes r_H.
	RewardHon
	// RewardTotal exposes r_A + r_H.
	RewardTotal
)

// Model is the attack MDP. It implements mdp.Model; the scalar reward seen
// by solvers is selected by Mode (and Beta for RewardBeta).
//
// A Model keeps internal decoding scratch and is NOT safe for concurrent
// use; create one Model per goroutine with Clone.
type Model struct {
	params Params
	codec  *Codec
	beta   float64
	mode   RewardMode

	s      *State // decode scratch
	tmp    *State // successor-construction scratch
	rawBuf []Raw  // reusable buffer for the Transitions hot path
}

var _ mdp.Model = (*Model)(nil)
var _ mdp.ActionLabeler = (*Model)(nil)
var _ kernel.Source = (*Model)(nil)

// NewModel constructs the MDP for validated parameters.
func NewModel(p Params) (*Model, error) {
	codec, err := NewCodec(p)
	if err != nil {
		return nil, err
	}
	m := &Model{params: p, codec: codec}
	m.s = codec.NewState()
	m.tmp = codec.NewState()
	return m, nil
}

// Clone returns an independent view of the same MDP (own scratch buffers),
// preserving Beta and Mode.
func (m *Model) Clone() *Model {
	c := &Model{params: m.params, codec: m.codec, beta: m.beta, mode: m.mode}
	c.s = m.codec.NewState()
	c.tmp = m.codec.NewState()
	return c
}

// Params returns the model parameters.
func (m *Model) Params() Params { return m.params }

// Codec returns the state codec.
func (m *Model) Codec() *Codec { return m.codec }

// SetBeta sets β for the RewardBeta view.
func (m *Model) SetBeta(beta float64) { m.beta = beta }

// Beta returns the current β.
func (m *Model) Beta() float64 { return m.beta }

// SetMode selects the reward view.
func (m *Model) SetMode(mode RewardMode) { m.mode = mode }

// NumStates implements mdp.Model.
func (m *Model) NumStates() int { return m.codec.NumStates() }

// Initial implements mdp.Model.
func (m *Model) Initial() int { return m.codec.InitialIndex() }

// releaseCount returns the number of legal release actions in a decision
// state: Σ_{i,j} max(0, C[i,j] − i + 1). A release of the first k blocks of
// fork (i, j) is legal when i ≤ k ≤ C[i,j]: the revealed chain then matches
// or exceeds the current public chain.
func (m *Model) releaseCount(s *State) int {
	n := 0
	d, f := m.params.Depth, m.params.Forks
	for i := 1; i <= d; i++ {
		for j := 1; j <= f; j++ {
			if c := int(s.ForkLen(f, i, j)); c >= i {
				n += c - i + 1
			}
		}
	}
	return n
}

// NumActions implements mdp.Model. Action 0 is always "mine" (continue);
// decision states additionally offer every legal release.
func (m *Model) NumActions(sIdx int) int {
	m.codec.Decode(sIdx, m.s)
	if m.s.Phase == Mining {
		return 1
	}
	return 1 + m.releaseCount(m.s)
}

// actionRelease resolves decision-state action a ≥ 1 to (i, j, k), 1-based.
func (m *Model) actionRelease(s *State, a int) (i, j, k int) {
	rem := a - 1
	d, f := m.params.Depth, m.params.Forks
	for i = 1; i <= d; i++ {
		for j = 1; j <= f; j++ {
			c := int(s.ForkLen(f, i, j))
			if c < i {
				continue
			}
			cnt := c - i + 1
			if rem < cnt {
				return i, j, i + rem
			}
			rem -= cnt
		}
	}
	panic(fmt.Sprintf("core: release action %d out of range in state %v", a, s))
}

// ActionLabel implements mdp.ActionLabeler.
func (m *Model) ActionLabel(sIdx, a int) string {
	if a == 0 {
		m.codec.Decode(sIdx, m.s)
		if m.s.Phase == PendingHonest {
			return "mine (let pending honest block land)"
		}
		return "mine"
	}
	m.codec.Decode(sIdx, m.s)
	i, j, k := m.actionRelease(m.s, a)
	return fmt.Sprintf("release(i=%d,j=%d,k=%d)", i, j, k)
}

// RawTransitions appends the raw successors of (sIdx, a) to buf. This is
// the single source of truth for the transition function; the mdp.Model
// view and the compiled solver both derive from it.
func (m *Model) RawTransitions(sIdx, a int, buf []Raw) []Raw {
	m.codec.Decode(sIdx, m.s)
	s := m.s
	switch s.Phase {
	case Mining:
		return m.miningRaw(s, buf)
	case PendingHonest:
		if a == 0 {
			dst, ra, rh := m.landPending(s)
			return append(buf, Raw{Dst: dst, Kind: KindSure, RA: ra, RH: rh})
		}
		i, j, k := m.actionRelease(s, a)
		accDst, accRA, accRH := m.acceptRelease(s, i, j, k)
		if k == i {
			// Tie against the pending block: broadcast race.
			loseDst, loseRA, loseRH := m.landPending(s)
			buf = append(buf, Raw{Dst: accDst, Kind: KindRaceWin, RA: accRA, RH: accRH})
			return append(buf, Raw{Dst: loseDst, Kind: KindRaceLose, RA: loseRA, RH: loseRH})
		}
		// k > i: strictly longer even after the pending block lands.
		return append(buf, Raw{Dst: accDst, Kind: KindSure, RA: accRA, RH: accRH})
	case AdvTurn:
		if a == 0 {
			// Continue withholding; back to the mining phase.
			m.tmp.Phase = Mining
			copy(m.tmp.C, s.C)
			copy(m.tmp.O, s.O)
			return append(buf, Raw{Dst: m.codec.Encode(m.tmp), Kind: KindSure})
		}
		// k ≥ i beats the current public chain outright; a stale tie would
		// lose, and k = i here already yields a strictly longer chain
		// because no pending honest block exists.
		i, j, k := m.actionRelease(s, a)
		dst, ra, rh := m.acceptRelease(s, i, j, k)
		return append(buf, Raw{Dst: dst, Kind: KindSure, RA: ra, RH: rh})
	default:
		panic(fmt.Sprintf("core: invalid phase %d", s.Phase))
	}
}

// miningRaw emits the nature move from a Mining state: each of the σ
// adversary targets wins with probability p/(1−p+pσ), honest with
// (1−p)/(1−p+pσ).
func (m *Model) miningRaw(s *State, buf []Raw) []Raw {
	d, f, l := m.params.Depth, m.params.Forks, m.params.MaxLen
	// σ = nonempty forks + one fresh-fork attempt per depth with a free slot.
	sigma := 0
	for i := 1; i <= d; i++ {
		hasEmpty := false
		for j := 1; j <= f; j++ {
			if s.ForkLen(f, i, j) > 0 {
				sigma++
			} else {
				hasEmpty = true
			}
		}
		if hasEmpty {
			sigma++
		}
	}
	sg := uint8(sigma)

	// Adversary extends an existing fork (capped at l) or starts the first
	// empty slot of a depth.
	for i := 1; i <= d; i++ {
		fresh := false
		for j := 1; j <= f; j++ {
			c := s.ForkLen(f, i, j)
			switch {
			case c > 0:
				copy(m.tmp.C, s.C)
				copy(m.tmp.O, s.O)
				m.tmp.Phase = AdvTurn
				if int(c) < l {
					m.tmp.SetForkLen(f, i, j, c+1)
				}
				buf = append(buf, Raw{Dst: m.codec.Encode(m.tmp), Kind: KindAdvMine, Sigma: sg})
			case !fresh:
				fresh = true
				copy(m.tmp.C, s.C)
				copy(m.tmp.O, s.O)
				m.tmp.Phase = AdvTurn
				m.tmp.SetForkLen(f, i, j, 1)
				buf = append(buf, Raw{Dst: m.codec.Encode(m.tmp), Kind: KindAdvMine, Sigma: sg})
			}
		}
	}
	// Honest miners find a block; it is pending until the adversary's
	// decision resolves.
	copy(m.tmp.C, s.C)
	copy(m.tmp.O, s.O)
	m.tmp.Phase = PendingHonest
	return append(buf, Raw{Dst: m.codec.Encode(m.tmp), Kind: KindHonMine, Sigma: sg})
}

// landPending applies the pending honest block: fork rows and the owner
// window shift one deeper; the block leaving the window (or the landing
// block itself when d = 1) becomes permanent.
func (m *Model) landPending(s *State) (dst int, ra, rh uint8) {
	d, f := m.params.Depth, m.params.Forks
	if d == 1 {
		rh = 1
	} else if s.O[d-2] == Adversary { // old depth d-1 reaches depth d
		ra = 1
	} else {
		rh = 1
	}
	// Shift fork rows down; row 1 becomes the fresh (empty) row of the new tip.
	for j := 0; j < f; j++ {
		m.tmp.C[j] = 0
	}
	copy(m.tmp.C[f:], s.C[:(d-1)*f])
	// Shift owners; the new tip is honest.
	if d >= 2 {
		m.tmp.O[0] = Honest
		copy(m.tmp.O[1:], s.O[:d-2])
	}
	m.tmp.Phase = Mining
	return m.codec.Encode(m.tmp), ra, rh
}

// acceptRelease constructs the state after the first k blocks of fork (i, j)
// are revealed and adopted as the main chain (legal when k ≥ i). The chain
// height grows by δ = k−i+1; the i−1 public blocks above the fork root (and
// any pending honest block) are orphaned; tracked blocks pushed to depth ≥ d
// and revealed blocks entering at depth ≥ d become permanent.
func (m *Model) acceptRelease(s *State, i, j, k int) (dst int, ra, rh uint8) {
	d, f := m.params.Depth, m.params.Forks
	delta := k - i + 1

	// Revealed adversary blocks occupy depths 1..k; those at depth ≥ d are
	// immediately permanent.
	if k >= d {
		ra += uint8(k - d + 1)
	}
	// Old tracked blocks at depths m ≥ i move to depth m+δ; they finalize
	// when m+δ ≥ d. (Blocks at depths < i are orphaned and pay nothing.)
	for mDepth := max(i, d-delta); mDepth <= d-1; mDepth++ {
		if s.O[mDepth-1] == Adversary {
			ra++
		} else {
			rh++
		}
	}

	// New owner window.
	for pos := 1; pos <= d-1; pos++ {
		if pos <= k {
			m.tmp.O[pos-1] = Adversary
		} else {
			m.tmp.O[pos-1] = s.O[pos-delta-1]
		}
	}

	// New fork rows. Row 1 holds the unreleased remainder of the revealed
	// fork, now rooted at the new tip.
	for idx := range m.tmp.C {
		m.tmp.C[idx] = 0
	}
	m.tmp.SetForkLen(f, 1, 1, s.ForkLen(f, i, j)-uint8(k))
	// Rows 2..min(k, d) root at freshly revealed blocks: empty.
	// Rows k+1..d carry over old rows i..d−δ (the revealed fork's slot is
	// consumed; its row maps to new row k+1 with slot j cleared).
	for r := k + 1; r <= d; r++ {
		oldRow := r - delta // ∈ [i, d-δ]
		for jj := 1; jj <= f; jj++ {
			if oldRow == i && jj == j {
				continue // consumed fork slot stays empty
			}
			m.tmp.SetForkLen(f, r, jj, s.ForkLen(f, oldRow, jj))
		}
	}
	m.tmp.Phase = Mining
	return m.codec.Encode(m.tmp), ra, rh
}

// rewardOf maps block counters to the scalar reward of the current view.
func (m *Model) rewardOf(ra, rh uint8) float64 {
	a, h := float64(ra), float64(rh)
	switch m.mode {
	case RewardBeta:
		return a - m.beta*(a+h)
	case RewardAdv:
		return a
	case RewardHon:
		return h
	case RewardTotal:
		return a + h
	default:
		return 0
	}
}

// Transitions implements mdp.Model.
func (m *Model) Transitions(sIdx, a int, buf []mdp.Transition) []mdp.Transition {
	raw := m.RawTransitions(sIdx, a, m.rawBuf[:0])
	m.rawBuf = raw[:0]
	for _, r := range raw {
		pr := RawProb(r, m.params.P, m.params.Gamma)
		buf = append(buf, mdp.Transition{Dst: r.Dst, Prob: pr, Reward: m.rewardOf(r.RA, r.RH)})
	}
	return buf
}

// Laws implements kernel.Source: the fork family's probability-law table,
// indexed by TransKind.
func (m *Model) Laws() []kernel.ProbLaw { return forkLaws }

// BlockRate implements kernel.Source: δ = (1−p)/(1−p+p·d·f), a lower bound
// on the per-step rate of permanent blocks (see Params.BlockRate).
func (m *Model) BlockRate(p, gamma float64) float64 {
	pr := m.params
	pr.P, pr.Gamma = p, gamma
	return pr.BlockRate()
}
