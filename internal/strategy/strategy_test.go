package strategy

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

func testModel(t testing.TB) (*core.Model, core.Params) {
	t.Helper()
	p := core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 3}
	m, err := core.NewModel(p)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m, p
}

func TestProfiledNeverRelease(t *testing.T) {
	m, _ := testModel(t)
	policy := make([]int, m.NumStates())
	prof, err := Profiled(m, policy)
	if err != nil {
		t.Fatalf("Profiled: %v", err)
	}
	if prof.Counts[KindRace] != 0 || prof.Counts[KindOvertake] != 0 {
		t.Errorf("never-release profile has releases: %+v", prof.Counts)
	}
	if prof.Counts[KindMine] != prof.DecisionStates {
		t.Errorf("mine count %d != decision states %d", prof.Counts[KindMine], prof.DecisionStates)
	}
	if prof.DecisionStates == 0 {
		t.Error("no decision states found")
	}
}

func TestProfiledClassifiesRaceAndOvertake(t *testing.T) {
	m, _ := testModel(t)
	// Choose the first release action everywhere one exists.
	policy := make([]int, m.NumStates())
	for s := range policy {
		if m.NumActions(s) > 1 {
			policy[s] = 1
		}
	}
	prof, err := Profiled(m, policy)
	if err != nil {
		t.Fatalf("Profiled: %v", err)
	}
	if prof.Counts[KindRace] == 0 {
		t.Error("expected some race releases in the d=2 model")
	}
	if prof.Counts[KindOvertake] == 0 {
		t.Error("expected some overtake releases")
	}
	if len(prof.ReleaseDepths) == 0 || len(prof.ReleaseLengths) == 0 {
		t.Error("release histograms empty")
	}
}

func TestProfiledWrongLength(t *testing.T) {
	m, _ := testModel(t)
	if _, err := Profiled(m, []int{0}); err == nil {
		t.Fatal("short policy accepted")
	}
	// A policy of the right length with an action its state lacks.
	policy := make([]int, m.NumStates())
	policy[0] = 1
	if _, err := Profiled(m, policy); err == nil {
		t.Fatal("out-of-range action accepted")
	}
}

func TestDescribeMentionsCounts(t *testing.T) {
	m, _ := testModel(t)
	policy := make([]int, m.NumStates())
	prof, err := Profiled(m, policy)
	if err != nil {
		t.Fatalf("Profiled: %v", err)
	}
	out := prof.Describe()
	for _, want := range []string{"decision states", "keep mining", "race releases", "overtakes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe() missing %q:\n%s", want, out)
		}
	}
}

// firstRelease picks the first release action wherever one exists.
func firstRelease(m *core.Model) []int {
	policy := make([]int, m.NumStates())
	for s := range policy {
		if m.NumActions(s) > 1 {
			policy[s] = 1
		}
	}
	return policy
}

// decisionState is the first state with more than one action.
func decisionState(m *core.Model) int {
	s := 0
	for m.NumActions(s) == 1 {
		s++
	}
	return s
}

// written is the file Write produces for policy.
func written(t testing.TB, p core.Params, policy []int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p, policy); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestWriteReadRoundTrip(t *testing.T) {
	m, p := testModel(t)
	policy := firstRelease(m)
	got, err := Read(bytes.NewReader(written(t, p, policy)), p)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != len(policy) {
		t.Fatalf("round trip length %d, want %d", len(got), len(policy))
	}
	for i := range policy {
		if got[i] != policy[i] {
			t.Fatalf("round trip mismatch at %d: %d vs %d", i, got[i], policy[i])
		}
	}
}

func TestReadRejectsWrongParams(t *testing.T) {
	m, p := testModel(t)
	policy := make([]int, m.NumStates())
	var buf bytes.Buffer
	if err := Write(&buf, p, policy); err != nil {
		t.Fatalf("Write: %v", err)
	}
	other := p
	other.P = 0.25
	if _, err := Read(&buf, other); err == nil {
		t.Fatal("mismatched parameters accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	m, p := testModel(t)
	if _, err := Read(strings.NewReader(""), p); err == nil {
		t.Fatal("empty input accepted")
	}
	header := "# selfish-mining strategy p=0.3 gamma=0.5 d=2 f=1 l=3 states=150"
	if _, err := Read(strings.NewReader(header+"\nnot-a-number\n"), p); err == nil {
		t.Fatal("garbage action line accepted")
	}
	if _, err := Read(strings.NewReader(header+"\n1\n2\n"), p); err == nil {
		t.Fatal("truncated policy accepted")
	}
	// Actions a decision state does not have: one past its last, far
	// past it, and negative.
	s := decisionState(m)
	for _, bad := range []int{m.NumActions(s), 99, -1} {
		policy := firstRelease(m)
		policy[s] = bad
		_, err := Read(bytes.NewReader(written(t, p, policy)), p)
		if err == nil {
			t.Errorf("action %d in state %d accepted", bad, s)
			continue
		}
		if want := fmt.Sprintf("state %d: action %d", s, bad); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// FuzzRead: Read either refuses its input or returns a policy that
// Profiled accepts.
func FuzzRead(f *testing.F) {
	m, p := testModel(f)
	valid := written(f, p, firstRelease(m))
	f.Add(valid)
	for _, bad := range []int{99, -1} {
		policy := firstRelease(m)
		policy[decisionState(m)] = bad
		f.Add(written(f, p, policy))
	}
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		policy, err := Read(bytes.NewReader(data), p)
		if err != nil {
			return
		}
		if _, err := Profiled(m, policy); err != nil {
			t.Fatalf("Profiled refuses a policy Read accepted: %v", err)
		}
	})
}
