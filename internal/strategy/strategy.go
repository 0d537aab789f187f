// Package strategy provides tooling around computed selfish-mining
// strategies: human-readable summaries, serialization for reuse across
// runs, and structural statistics (how often the strategy withholds, races,
// or overtakes).
package strategy

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Kind classifies what a strategy does at a decision state.
type Kind uint8

// Decision kinds.
const (
	// KindMine continues withholding (or has nothing to release).
	KindMine Kind = iota
	// KindRace releases a fork that ties the pending honest block (k = i).
	KindRace
	// KindOvertake releases a fork strictly longer than the public chain.
	KindOvertake
)

func (k Kind) String() string {
	switch k {
	case KindMine:
		return "mine"
	case KindRace:
		return "race"
	case KindOvertake:
		return "overtake"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Profile summarizes the structure of a positional strategy.
type Profile struct {
	// DecisionStates is the number of states with more than one action.
	DecisionStates int
	// Counts tallies decision states by the kind of action chosen.
	Counts map[Kind]int
	// ReleaseDepths histograms the fork row i of chosen releases.
	ReleaseDepths map[int]int
	// ReleaseLengths histograms the revealed length k of chosen releases.
	ReleaseLengths map[int]int
}

// Profiled analyzes which kinds of actions the strategy uses where.
func Profiled(m *core.Model, policy []int) (*Profile, error) {
	if len(policy) != m.NumStates() {
		return nil, fmt.Errorf("strategy: policy covers %d states, model has %d", len(policy), m.NumStates())
	}
	if err := checkActions(m, policy); err != nil {
		return nil, err
	}
	p := &Profile{
		Counts:         make(map[Kind]int),
		ReleaseDepths:  make(map[int]int),
		ReleaseLengths: make(map[int]int),
	}
	st := m.Codec().NewState()
	for s := 0; s < m.NumStates(); s++ {
		na := m.NumActions(s)
		if na <= 1 {
			continue
		}
		p.DecisionStates++
		a := policy[s]
		if a == 0 {
			p.Counts[KindMine]++
			continue
		}
		m.Codec().Decode(s, st)
		i, _, k := m.Release(s, a)
		if k == i && st.Phase == core.PendingHonest {
			p.Counts[KindRace]++
		} else {
			p.Counts[KindOvertake]++
		}
		p.ReleaseDepths[i]++
		p.ReleaseLengths[k]++
	}
	return p, nil
}

// Describe renders the profile as a short human-readable report.
func (p *Profile) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "decision states: %d\n", p.DecisionStates)
	fmt.Fprintf(&b, "  keep mining:   %d\n", p.Counts[KindMine])
	fmt.Fprintf(&b, "  race releases: %d\n", p.Counts[KindRace])
	fmt.Fprintf(&b, "  overtakes:     %d\n", p.Counts[KindOvertake])
	if len(p.ReleaseDepths) > 0 {
		b.WriteString("  release fork rows:")
		for _, depth := range sortedKeys(p.ReleaseDepths) {
			fmt.Fprintf(&b, " i=%d:%d", depth, p.ReleaseDepths[depth])
		}
		b.WriteByte('\n')
	}
	if len(p.ReleaseLengths) > 0 {
		b.WriteString("  release lengths:")
		for _, k := range sortedKeys(p.ReleaseLengths) {
			fmt.Fprintf(&b, " k=%d:%d", k, p.ReleaseLengths[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Write serializes a policy as one action index per line, preceded by a
// header recording the model parameters for compatibility checking.
func Write(w io.Writer, params core.Params, policy []int) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# selfish-mining strategy p=%g gamma=%g d=%d f=%d l=%d states=%d\n",
		params.P, params.Gamma, params.Depth, params.Forks, params.MaxLen, len(policy)); err != nil {
		return err
	}
	for _, a := range policy {
		if _, err := fmt.Fprintln(bw, a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a policy written by Write and checks it against the expected
// parameters: the header must match them, and every state must select one
// of its actions.
func Read(r io.Reader, params core.Params) ([]int, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("strategy: empty input")
	}
	wantHeader := fmt.Sprintf("# selfish-mining strategy p=%g gamma=%g d=%d f=%d l=%d states=%d",
		params.P, params.Gamma, params.Depth, params.Forks, params.MaxLen, params.NumStates())
	if got := sc.Text(); got != wantHeader {
		return nil, fmt.Errorf("strategy: header mismatch:\n  got  %q\n  want %q", got, wantHeader)
	}
	policy := make([]int, 0, params.NumStates())
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		a, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("strategy: bad action line %q: %w", line, err)
		}
		policy = append(policy, a)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(policy) != params.NumStates() {
		return nil, fmt.Errorf("strategy: %d actions for %d states", len(policy), params.NumStates())
	}
	m, err := core.NewModel(params)
	if err != nil {
		return nil, err
	}
	if err := checkActions(m, policy); err != nil {
		return nil, err
	}
	return policy, nil
}

// checkActions reports the first state whose policy action m does not
// offer.
func checkActions(m *core.Model, policy []int) error {
	for s, a := range policy {
		if na := m.NumActions(s); a < 0 || a >= na {
			return fmt.Errorf("strategy: state %d: action %d out of range [0,%d)", s, a, na)
		}
	}
	return nil
}
