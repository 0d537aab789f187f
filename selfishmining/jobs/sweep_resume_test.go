package jobs

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/results"
	"repro/selfishmining"
)

// adaptiveSweepSpec is a small adaptive fork sweep that refines: the
// attack curve has real curvature on [0, 0.3] at this tolerance.
func adaptiveSweepSpec() SweepSpec {
	return SweepSpec{
		Gamma: 0.5, PGrid: []float64{0, 0.1, 0.2, 0.3},
		Configs: []SweepConfig{{Depth: 2, Forks: 1}}, Len: 3, Epsilon: 1e-3,
		Adaptive: true, Tolerance: 1e-3, MaxDepth: 2,
	}
}

// equalFigures asserts two figures are bitwise identical in x and values.
func equalFigures(t *testing.T, label string, want, got *results.Figure) {
	t.Helper()
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d x points, want %d", label, len(got.X), len(want.X))
	}
	for i, x := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(x) {
			t.Fatalf("%s: x[%d] = %v, want %v", label, i, got.X[i], x)
		}
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: %d series, want %d", label, len(got.Series), len(want.Series))
	}
	for i, s := range want.Series {
		if got.Series[i].Name != s.Name {
			t.Fatalf("%s: series %d named %q, want %q", label, i, got.Series[i].Name, s.Name)
		}
		for k, v := range s.Values {
			if math.Float64bits(got.Series[i].Values[k]) != math.Float64bits(v) {
				t.Errorf("%s: series %s point %d: %v != %v", label, s.Name, k, got.Series[i].Values[k], v)
			}
		}
	}
}

// referenceSweep solves the spec uninterrupted on a fresh service.
func referenceSweep(t *testing.T, spec SweepSpec) *results.Figure {
	t.Helper()
	fig, err := selfishmining.NewService(selfishmining.ServiceConfig{}).
		SweepContext(context.Background(), spec.Options())
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	return fig
}

// TestJobAdaptiveSpecValidation pins the adaptive fields' normalization.
func TestJobAdaptiveSpecValidation(t *testing.T) {
	m := newTestManager(t, Config{})
	bad := []SweepSpec{
		{Gamma: 0.5, Tolerance: 1e-3},                                 // adaptive option without adaptive
		{Gamma: 0.5, MaxDepth: 2},                                     // ditto
		{Gamma: 0.5, Adaptive: true, PGrid: []float64{0.1}},           // one-point coarse grid
		{Gamma: 0.5, Adaptive: true, PGrid: []float64{0.1, 0.1, 0.2}}, // not strictly increasing
		{Gamma: 0.5, Adaptive: true, PGrid: []float64{0, 0.1}, MaxDepth: -1},
		{Gamma: 0.5, Adaptive: true, PGrid: []float64{0, 0.1}, Tolerance: -1},
	}
	for i, spec := range bad {
		s := spec
		if _, err := m.Submit(Request{Kind: KindSweep, Sweep: &s}); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
	st, err := m.Submit(Request{Kind: KindSweep, Sweep: &SweepSpec{
		Gamma: 0.5, PGrid: []float64{0, 0.1}, Adaptive: true,
		Configs: []SweepConfig{{Depth: 1, Forks: 1}}, Len: 3, Epsilon: 1e-3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Sweep.Tolerance != selfishmining.DefaultSweepTolerance || st.Sweep.MaxDepth != selfishmining.DefaultSweepMaxDepth {
		t.Errorf("defaults not filled: tolerance %v depth %d", st.Sweep.Tolerance, st.Sweep.MaxDepth)
	}
	waitState(t, m, st.ID, StateDone)
}

// TestJobAdaptiveSweepCancelMidRefinementResume cancels an adaptive sweep
// after refinement has started and resumes it: the resumed job must
// replay the checkpointed points and converge on a figure bitwise
// identical to an uninterrupted run.
func TestJobAdaptiveSweepCancelMidRefinementResume(t *testing.T) {
	spec := adaptiveSweepSpec()
	coarse := len(spec.PGrid)
	m := newTestManager(t, Config{})
	var once sync.Once
	m.pointGate = func(id string, done int) {
		// Past the coarse pass: the cancel lands mid-refinement.
		if done == coarse+1 {
			once.Do(func() { m.Cancel(id) })
		}
	}
	st, err := m.Submit(Request{Kind: KindSweep, Sweep: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if st.Sweep == nil || !st.Sweep.Adaptive || st.Sweep.Tolerance != 1e-3 {
		t.Fatalf("submitted spec lost its adaptive options: %+v", st.Sweep)
	}
	canceled := waitState(t, m, st.ID, StateCanceled)
	if canceled.Progress.PointsDone <= coarse {
		t.Fatalf("canceled after %d points; the gate fires mid-refinement at %d", canceled.Progress.PointsDone, coarse+1)
	}
	if !canceled.HasCheckpoint {
		t.Fatal("canceled mid-refinement without a sweep checkpoint")
	}
	if _, err := m.Resume(st.ID); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, st.ID, StateDone)
	if done.HasCheckpoint {
		t.Error("finished job still advertises a checkpoint")
	}
	if done.SweepResult == nil {
		t.Fatal("resumed sweep has no result")
	}
	got, err := done.SweepResult.Figure()
	if err != nil {
		t.Fatal(err)
	}
	equalFigures(t, "resumed adaptive sweep", referenceSweep(t, spec), got)
	if len(got.X) <= coarse {
		t.Fatalf("adaptive sweep never refined: %d x points", len(got.X))
	}
}

// TestJobSweepCheckpointSurvivesRestart interrupts an adaptive sweep,
// closes the manager, and reopens the same DiskStore over a fresh (cold)
// service: the resumed job must replay every persisted point without
// re-solving it and still produce the bitwise-identical figure.
func TestJobSweepCheckpointSurvivesRestart(t *testing.T) {
	spec := adaptiveSweepSpec()
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	m1, err := New(selfishmining.NewService(selfishmining.ServiceConfig{}), Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	m1.pointGate = func(id string, done int) {
		if done == len(spec.PGrid)+1 {
			once.Do(func() { m1.Cancel(id) })
		}
	}
	st, err := m1.Submit(Request{Kind: KindSweep, Sweep: &spec})
	if err != nil {
		t.Fatal(err)
	}
	canceled := waitState(t, m1, st.ID, StateCanceled)
	checkpointed := canceled.Progress.PointsDone
	if checkpointed <= len(spec.PGrid) {
		t.Fatalf("canceled after %d points, want > %d (mid-refinement)", checkpointed, len(spec.PGrid))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// "Restart": same store, fresh service with empty caches.
	store2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := selfishmining.NewService(selfishmining.ServiceConfig{})
	m2, err := New(svc2, Config{Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m2.Close(ctx)
	})
	rec, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateCanceled || !rec.HasCheckpoint {
		t.Fatalf("recovered job is %s (checkpoint %v), want canceled with a checkpoint", rec.State, rec.HasCheckpoint)
	}
	if _, err := m2.Resume(st.ID); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m2, st.ID, StateDone)
	got, err := done.SweepResult.Figure()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSweep(t, spec)
	equalFigures(t, "restart-resumed adaptive sweep", want, got)

	// The replayed points must not have been re-solved: the cold service
	// behind m2 may solve at most the attack-curve points the checkpoint
	// does not cover. (Baseline series do not go through the service's
	// solver, so Solves counts attack points only.)
	attackPoints := len(want.X) * len(spec.Configs)
	if solves := int(svc2.Stats().Solves); solves > attackPoints-checkpointed {
		t.Errorf("resumed run solved %d points, want <= %d (%d attack points, %d checkpointed)",
			solves, attackPoints-checkpointed, attackPoints, checkpointed)
	}
}
