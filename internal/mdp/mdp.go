// Package mdp defines the finite Markov decision process abstractions used
// throughout the repository: an implicit (on-the-fly) model interface, an
// explicit in-memory model for small systems and tests, model validation,
// reachability analysis, and induction of the Markov chain obtained by
// fixing a positional strategy.
//
// The exact mean-payoff reference solvers live in package solve; the
// selfish-mining attack MDP of the paper is built in package core on top of
// these abstractions.
package mdp

import (
	"fmt"
	"math"
)

// Transition is a single probabilistic successor of a state-action pair.
// Reward is the transition reward r(s, a, s').
type Transition struct {
	Dst    int
	Prob   float64
	Reward float64
}

// Model is an implicit finite MDP. Implementations must be deterministic:
// repeated calls with the same arguments must return identical results.
//
// States are indexed 0..NumStates()-1 and actions per state are indexed
// 0..NumActions(s)-1. Every state must have at least one action, and each
// action's transition probabilities must sum to 1.
type Model interface {
	// NumStates returns the number of states.
	NumStates() int
	// Initial returns the initial state index.
	Initial() int
	// NumActions returns the number of actions available in state s.
	NumActions(s int) int
	// Transitions appends the successors of (s, a) to buf and returns the
	// extended slice. Implementations should not retain buf.
	Transitions(s, a int, buf []Transition) []Transition
}

// ActionLabeler is an optional interface for models that can describe
// actions in human-readable form.
type ActionLabeler interface {
	ActionLabel(s, a int) string
}

// Choice is one action of an explicit model: a label and its successor
// distribution.
type Choice struct {
	Label string
	Succ  []Transition
}

// Explicit is an in-memory MDP, convenient for small systems and tests.
type Explicit struct {
	Init    int
	Choices [][]Choice // Choices[s] lists the actions available in s
}

var _ Model = (*Explicit)(nil)
var _ ActionLabeler = (*Explicit)(nil)

// NumStates implements Model.
func (e *Explicit) NumStates() int { return len(e.Choices) }

// Initial implements Model.
func (e *Explicit) Initial() int { return e.Init }

// NumActions implements Model.
func (e *Explicit) NumActions(s int) int { return len(e.Choices[s]) }

// Transitions implements Model.
func (e *Explicit) Transitions(s, a int, buf []Transition) []Transition {
	return append(buf, e.Choices[s][a].Succ...)
}

// ActionLabel implements ActionLabeler.
func (e *Explicit) ActionLabel(s, a int) string {
	lbl := e.Choices[s][a].Label
	if lbl == "" {
		return fmt.Sprintf("a%d", a)
	}
	return lbl
}

// Validate checks structural well-formedness of a model: every state has at
// least one action, destinations are in range, probabilities are
// non-negative and sum to 1 within tol.
func Validate(m Model, tol float64) error {
	n := m.NumStates()
	if n <= 0 {
		return fmt.Errorf("mdp: model has %d states", n)
	}
	if init := m.Initial(); init < 0 || init >= n {
		return fmt.Errorf("mdp: initial state %d out of range [0,%d)", init, n)
	}
	var buf []Transition
	for s := 0; s < n; s++ {
		na := m.NumActions(s)
		if na <= 0 {
			return fmt.Errorf("mdp: state %d has no actions", s)
		}
		for a := 0; a < na; a++ {
			buf = m.Transitions(s, a, buf[:0])
			if len(buf) == 0 {
				return fmt.Errorf("mdp: state %d action %d has no successors", s, a)
			}
			var sum float64
			for _, tr := range buf {
				if tr.Dst < 0 || tr.Dst >= n {
					return fmt.Errorf("mdp: state %d action %d: destination %d out of range", s, a, tr.Dst)
				}
				if tr.Prob < 0 {
					return fmt.Errorf("mdp: state %d action %d: negative probability %v", s, a, tr.Prob)
				}
				sum += tr.Prob
			}
			if math.Abs(sum-1) > tol {
				return fmt.Errorf("mdp: state %d action %d: probabilities sum to %v, want 1", s, a, sum)
			}
		}
	}
	return nil
}

// Reachable returns the set of states reachable from the initial state under
// any strategy (i.e., exploring all actions), as a boolean mask and a count.
func Reachable(m Model) ([]bool, int) {
	n := m.NumStates()
	seen := make([]bool, n)
	stack := []int{m.Initial()}
	seen[m.Initial()] = true
	count := 1
	var buf []Transition
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for a := 0; a < m.NumActions(s); a++ {
			buf = m.Transitions(s, a, buf[:0])
			for _, tr := range buf {
				if tr.Prob > 0 && !seen[tr.Dst] {
					seen[tr.Dst] = true
					count++
					stack = append(stack, tr.Dst)
				}
			}
		}
	}
	return seen, count
}

// MaxBranching returns the largest number of successors over all
// state-action pairs; useful for sizing reusable buffers.
func MaxBranching(m Model) int {
	var buf []Transition
	best := 0
	for s := 0; s < m.NumStates(); s++ {
		for a := 0; a < m.NumActions(s); a++ {
			buf = m.Transitions(s, a, buf[:0])
			if len(buf) > best {
				best = len(buf)
			}
		}
	}
	return best
}
