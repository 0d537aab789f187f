package jobs

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/selfishmining"
)

// smallSpec is a quick full analysis used throughout the tests.
var smallSpec = AnalyzeSpec{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, Len: 3, Epsilon: 1e-3}

// familySpecs mirrors the determinism suite's per-family configurations.
var familySpecs = []struct {
	name string
	spec AnalyzeSpec
}{
	{"fork", AnalyzeSpec{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, Len: 3, Epsilon: 1e-3}},
	{"singletree", AnalyzeSpec{Model: "singletree", P: 0.3, Gamma: 0.5, Depth: 1, Forks: 3, Len: 3, Epsilon: 1e-3}},
	{"nakamoto", AnalyzeSpec{Model: "nakamoto", P: 0.4, Gamma: 0, Depth: 1, Forks: 1, Len: 8, Epsilon: 1e-3}},
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(selfishmining.NewService(selfishmining.ServiceConfig{}), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	return m
}

// waitState polls until the job reaches want (or a terminal state that is
// not want, which fails fast).
func waitState(t *testing.T, m *Manager, id string, want State) *Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q) while waiting for %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %s in time", id, want)
	return nil
}

// equalJobResults asserts bitwise equality of two analyze results.
func equalJobResults(t *testing.T, label string, want, got *AnalyzeResult) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: result missing (want %v, got %v)", label, want != nil, got != nil)
	}
	if math.Float64bits(want.ERRev) != math.Float64bits(got.ERRev) ||
		math.Float64bits(want.ERRevUpper) != math.Float64bits(got.ERRevUpper) {
		t.Errorf("%s: bracket [%v, %v] != [%v, %v]", label, got.ERRev, got.ERRevUpper, want.ERRev, want.ERRevUpper)
	}
	switch {
	case want.StrategyERRev == nil != (got.StrategyERRev == nil):
		t.Errorf("%s: strategy ERRev presence differs", label)
	case want.StrategyERRev != nil && math.Float64bits(*want.StrategyERRev) != math.Float64bits(*got.StrategyERRev):
		t.Errorf("%s: strategy ERRev %v != %v", label, *got.StrategyERRev, *want.StrategyERRev)
	}
	if want.Iterations != got.Iterations || want.Sweeps != got.Sweeps {
		t.Errorf("%s: (%d iters, %d sweeps) != (%d iters, %d sweeps)",
			label, got.Iterations, got.Sweeps, want.Iterations, want.Sweeps)
	}
	if len(want.Strategy) != len(got.Strategy) {
		t.Fatalf("%s: strategy lengths %d != %d", label, len(got.Strategy), len(want.Strategy))
	}
	for s := range want.Strategy {
		if want.Strategy[s] != got.Strategy[s] {
			t.Fatalf("%s: strategy diverges at state %d", label, s)
		}
	}
}

// reference solves the spec directly (uninterrupted, fresh service) in the
// stored-result form.
func reference(t *testing.T, spec AnalyzeSpec) *AnalyzeResult {
	t.Helper()
	res, err := selfishmining.NewService(selfishmining.ServiceConfig{}).
		AnalyzeContext(context.Background(), spec.Params(), spec.Options()...)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	return analyzeResult(res)
}

func TestJobLifecycleAnalyze(t *testing.T) {
	m := newTestManager(t, Config{})
	st, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.State != StateQueued || st.ID == "" || st.Kind != KindAnalyze {
		t.Fatalf("initial snapshot %+v", st)
	}
	done := waitState(t, m, st.ID, StateDone)
	if done.FinishedAt == nil || done.StartedAt == nil {
		t.Error("done job missing timestamps")
	}
	if done.HasCheckpoint {
		t.Error("done job still advertises a checkpoint")
	}
	equalJobResults(t, "lifecycle", reference(t, smallSpec), done.Result)
	if done.Progress.Iterations != done.Result.Iterations {
		t.Errorf("final progress %d iterations, result %d", done.Progress.Iterations, done.Result.Iterations)
	}

	// The event log replays the full lifecycle: queued and running and done
	// status events, with progress events in between, in one sequence.
	evs, err := m.Events(context.Background(), st.ID, -1)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	var states []State
	var progressEvents int
	for i, ev := range evs {
		if int64(i) > 0 && ev.Seq != evs[i-1].Seq+1 {
			t.Errorf("event sequence gap: %d then %d", evs[i-1].Seq, ev.Seq)
		}
		switch ev.Type {
		case "status":
			states = append(states, ev.Status.State)
		case "progress":
			progressEvents++
		}
	}
	if len(states) != 3 || states[0] != StateQueued || states[1] != StateRunning || states[2] != StateDone {
		t.Errorf("status events %v, want [queued running done]", states)
	}
	if progressEvents != done.Result.Iterations {
		t.Errorf("%d progress events for %d binary-search steps", progressEvents, done.Result.Iterations)
	}

	// Replay from a mid-stream cursor yields exactly the suffix.
	mid := evs[len(evs)/2].Seq
	tail, err := m.Events(context.Background(), st.ID, mid)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != len(evs)-int(mid)-1 {
		t.Errorf("cursor %d replayed %d events, want %d", mid, len(tail), len(evs)-int(mid)-1)
	}
}

func TestJobCancelResumeDeterminismPerFamily(t *testing.T) {
	for _, tc := range familySpecs {
		t.Run(tc.name, func(t *testing.T) {
			want := reference(t, tc.spec)
			if want.Iterations < 3 {
				t.Fatalf("reference finished in %d steps; too few to cancel mid-search", want.Iterations)
			}
			// The progress gate cancels the job from its own solving
			// goroutine after step 2 — a deterministic mid-search stop.
			m := newTestManager(t, Config{})
			m.progressGate = func(id string, iter int) {
				if iter == 2 {
					if _, err := m.Cancel(id); err != nil {
						t.Errorf("Cancel from gate: %v", err)
					}
				}
			}
			st, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &tc.spec})
			if err != nil {
				t.Fatal(err)
			}
			canceled := waitState(t, m, st.ID, StateCanceled)
			if !canceled.HasCheckpoint {
				t.Fatal("canceled mid-search without a checkpoint")
			}
			if canceled.ErrorCode != "canceled" || canceled.Error == "" {
				t.Errorf("canceled job error %q code %q", canceled.Error, canceled.ErrorCode)
			}
			if canceled.Progress.Iterations < 2 {
				t.Errorf("canceled after %d iterations, gate fired at 2", canceled.Progress.Iterations)
			}
			resumed, err := m.Resume(st.ID)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if resumed.Resumes != 1 {
				t.Errorf("Resumes = %d, want 1", resumed.Resumes)
			}
			done := waitState(t, m, st.ID, StateDone)
			equalJobResults(t, tc.name, want, done.Result)

			stats := m.Stats()
			if stats.Canceled != 1 || stats.Resumed != 1 || stats.Completed != 1 {
				t.Errorf("stats %+v: want 1 canceled, 1 resumed, 1 completed", stats)
			}
		})
	}
}

func TestJobSweepLifecycle(t *testing.T) {
	spec := SweepSpec{
		Gamma: 0.5, PGrid: []float64{0, 0.1, 0.2},
		Configs: []SweepConfig{{Depth: 1, Forks: 1}}, Len: 3, Epsilon: 1e-3,
	}
	m := newTestManager(t, Config{})
	st, err := m.Submit(Request{Kind: KindSweep, Sweep: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if st.Progress.PointsTotal != 3 {
		t.Errorf("PointsTotal %d, want 3", st.Progress.PointsTotal)
	}
	done := waitState(t, m, st.ID, StateDone)
	if done.Progress.PointsDone != 3 {
		t.Errorf("PointsDone %d, want 3", done.Progress.PointsDone)
	}
	if done.SweepResult == nil {
		t.Fatal("sweep job finished without a result")
	}
	want, err := selfishmining.SweepContext(context.Background(), spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	got, err := done.SweepResult.Figure()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%d series, want %d", len(got.Series), len(want.Series))
	}
	for i, s := range want.Series {
		for k, v := range s.Values {
			if math.Float64bits(got.Series[i].Values[k]) != math.Float64bits(v) {
				t.Errorf("series %s point %d: %v != %v", s.Name, k, got.Series[i].Values[k], v)
			}
		}
	}
	// Point events streamed one per grid point.
	evs, err := m.Events(context.Background(), st.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, ev := range evs {
		if ev.Type == "point" {
			points++
			if ev.Point == nil || ev.Progress == nil {
				t.Error("point event missing payloads")
			}
		}
	}
	if points != 3 {
		t.Errorf("%d point events, want 3", points)
	}
}

func TestJobPriorityAndFIFO(t *testing.T) {
	gate := make(chan struct{})
	var gated bool
	m := newTestManager(t, Config{Workers: 1})
	m.runGate = func(id string) {
		if !gated {
			gated = true // only the first job blocks
			<-gate
		}
	}
	blocker, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning)
	// With the only worker pinned, these all queue; the heap must order
	// them priority-first, submit-order within a priority.
	low1, _ := m.Submit(Request{Kind: KindAnalyze, Priority: 0, Analyze: &smallSpec})
	high, _ := m.Submit(Request{Kind: KindAnalyze, Priority: 5, Analyze: &smallSpec})
	low2, _ := m.Submit(Request{Kind: KindAnalyze, Priority: 0, Analyze: &smallSpec})
	if d := m.Stats().QueueDepth; d != 3 {
		t.Fatalf("queue depth %d, want 3", d)
	}
	close(gate)
	for _, id := range []string{blocker.ID, low1.ID, high.ID, low2.ID} {
		waitState(t, m, id, StateDone)
	}
	get := func(id string) *Status {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if !get(high.ID).StartedAt.Before(*get(low1.ID).StartedAt) {
		t.Error("high-priority job started after a low-priority one")
	}
	if !get(low1.ID).StartedAt.Before(*get(low2.ID).StartedAt) {
		t.Error("FIFO violated within a priority")
	}
}

func TestJobQueueLimitAndClosed(t *testing.T) {
	gate := make(chan struct{})
	m := newTestManager(t, Config{Workers: 1, QueueLimit: 1})
	m.runGate = func(string) { <-gate }
	first, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning)
	if _, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec}); err != nil {
		t.Fatalf("submit within limit: %v", err)
	}
	if _, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over limit: %v, want ErrQueueFull", err)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

func TestJobValidation(t *testing.T) {
	m := newTestManager(t, Config{})
	cases := []Request{
		{Kind: KindAnalyze},                    // missing spec
		{Kind: KindSweep},                      // missing spec
		{Kind: "mystery", Analyze: &smallSpec}, // unknown kind
		{Kind: KindAnalyze, Analyze: &smallSpec, Sweep: &SweepSpec{}}, // both specs
		{Kind: KindAnalyze, Analyze: &AnalyzeSpec{P: 1.5, Gamma: 0.5, Depth: 1, Forks: 1, Len: 2}},
		{Kind: KindAnalyze, Analyze: &AnalyzeSpec{Model: "no-such-family", P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, Len: 2}},
		{Kind: KindSweep, Sweep: &SweepSpec{Gamma: 2}},
		{Kind: KindSweep, Sweep: &SweepSpec{Gamma: 0.5, PGrid: []float64{0.1}, Configs: []SweepConfig{{Depth: 0, Forks: 1}}, Len: 2}},
	}
	for i, req := range cases {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("case %d: invalid request accepted: %+v", i, req)
		}
	}
	if st := m.Stats(); st.Submitted != 0 {
		t.Errorf("rejected submissions counted: %+v", st)
	}
}

func TestJobSweepSpecNormalization(t *testing.T) {
	m := newTestManager(t, Config{})
	gate := make(chan struct{})
	m.runGate = func(string) { <-gate }
	defer close(gate)
	st, err := m.Submit(Request{Kind: KindSweep, Sweep: &SweepSpec{Gamma: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sweep.PGrid) != 31 {
		t.Errorf("default grid has %d points, want 31", len(st.Sweep.PGrid))
	}
	if len(st.Sweep.Configs) != len(selfishmining.Figure2Configs) {
		t.Errorf("default configs %d, want %d", len(st.Sweep.Configs), len(selfishmining.Figure2Configs))
	}
	if st.Sweep.Len != selfishmining.DefaultSweepMaxForkLen || st.Sweep.TreeWidth != 5 {
		t.Errorf("defaults not applied: l=%d width=%d", st.Sweep.Len, st.Sweep.TreeWidth)
	}
	if st.Progress.PointsTotal != 31*len(selfishmining.Figure2Configs) {
		t.Errorf("PointsTotal %d", st.Progress.PointsTotal)
	}
}

func TestJobCancelQueuedAndTerminalTransitions(t *testing.T) {
	gate := make(chan struct{})
	m := newTestManager(t, Config{Workers: 1})
	m.runGate = func(string) { <-gate }
	running, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	queued, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	if err != nil {
		t.Fatal(err)
	}
	// A queued job cancels instantly, without a checkpoint, and leaves the
	// queue.
	st, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled || st.HasCheckpoint {
		t.Errorf("canceled queued job: %+v", st)
	}
	if d := m.Stats().QueueDepth; d != 0 {
		t.Errorf("queue depth %d after canceling the only queued job", d)
	}
	// Cancel is idempotent on canceled jobs; resume re-queues them.
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Errorf("re-cancel of canceled job: %v", err)
	}
	if _, err := m.Resume(queued.ID); err != nil {
		t.Fatalf("Resume of queued-canceled job: %v", err)
	}
	// Resume of queued/running jobs is rejected.
	if _, err := m.Resume(running.ID); !errors.Is(err, ErrNotResumable) {
		t.Errorf("Resume of running job: %v", err)
	}
	close(gate)
	done := waitState(t, m, running.ID, StateDone)
	if _, err := m.Cancel(done.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("Cancel of done job: %v", err)
	}
	if _, err := m.Resume(done.ID); !errors.Is(err, ErrNotResumable) {
		t.Errorf("Resume of done job: %v", err)
	}
	waitState(t, m, queued.ID, StateDone)
}

func TestJobEviction(t *testing.T) {
	m := newTestManager(t, Config{TTL: 20 * time.Millisecond})
	st, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	time.Sleep(40 * time.Millisecond)
	// Submit triggers an opportunistic retention pass.
	if _, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(st.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("expired job still retrievable: %v", err)
	}
	if ev := m.Stats().Evicted; ev != 1 {
		t.Errorf("Evicted = %d, want 1", ev)
	}
}

func TestJobMaxFinishedCap(t *testing.T) {
	m := newTestManager(t, Config{TTL: -1, MaxFinished: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, st.ID, StateDone)
		ids = append(ids, st.ID)
	}
	// The 5th submit's retention pass must keep only the 2 newest finished.
	if _, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec}); err != nil {
		t.Fatal(err)
	}
	retained := 0
	for _, id := range ids {
		if _, err := m.Get(id); err == nil {
			retained++
		}
	}
	if retained != 2 {
		t.Errorf("retained %d finished jobs, cap is 2", retained)
	}
}

func TestJobListFilters(t *testing.T) {
	gate := make(chan struct{})
	m := newTestManager(t, Config{Workers: 1})
	m.runGate = func(string) { <-gate }
	a, _ := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	waitState(t, m, a.ID, StateRunning)
	s, _ := m.Submit(Request{Kind: KindSweep, Sweep: &SweepSpec{
		Gamma: 0.5, PGrid: []float64{0.1}, Configs: []SweepConfig{{Depth: 1, Forks: 1}}, Len: 3, Epsilon: 1e-3,
	}})
	if got := len(m.List(Filter{})); got != 2 {
		t.Errorf("List all: %d, want 2", got)
	}
	if got := m.List(Filter{Kind: KindSweep}); len(got) != 1 || got[0].ID != s.ID {
		t.Errorf("List sweep: %+v", got)
	}
	if got := m.List(Filter{State: StateQueued}); len(got) != 1 || got[0].ID != s.ID {
		t.Errorf("List queued: %+v", got)
	}
	// Newest first.
	if all := m.List(Filter{}); all[0].ID != s.ID {
		t.Error("List not ordered newest-first")
	}
	close(gate)
	waitState(t, m, s.ID, StateDone)
}

// TestJobEventStreamLive subscribes before the job finishes and follows
// the stream to its terminal event, as the SSE handler does.
func TestJobEventStreamLive(t *testing.T) {
	release := make(chan struct{})
	m := newTestManager(t, Config{})
	m.runGate = func(string) { <-release }
	st, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	if err != nil {
		t.Fatal(err)
	}
	type streamResult struct {
		states []State
		err    error
	}
	got := make(chan streamResult, 1)
	go func() {
		var out streamResult
		after := int64(-1)
		for {
			evs, err := m.Events(context.Background(), st.ID, after)
			if err != nil {
				out.err = err
				break
			}
			if len(evs) == 0 {
				break // terminal and caught up
			}
			for _, ev := range evs {
				if ev.Type == "status" {
					out.states = append(out.states, ev.Status.State)
				}
				after = ev.Seq
			}
		}
		got <- out
	}()
	close(release)
	out := <-got
	if out.err != nil {
		t.Fatalf("stream: %v", out.err)
	}
	want := []State{StateQueued, StateRunning, StateDone}
	if len(out.states) != len(want) {
		t.Fatalf("stream states %v, want %v", out.states, want)
	}
	for i := range want {
		if out.states[i] != want[i] {
			t.Fatalf("stream states %v, want %v", out.states, want)
		}
	}
}

// TestJobEventRingGapSnapshot: a cursor older than the retained ring gets
// a leading status snapshot, then the surviving suffix.
func TestJobEventRingGapSnapshot(t *testing.T) {
	m := newTestManager(t, Config{EventBuffer: 4})
	st, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	evs, err := m.Events(context.Background(), st.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 {
		t.Fatalf("replay returned %d events, want snapshot + 4 retained", len(evs))
	}
	if evs[0].Type != "status" || evs[0].Status == nil || evs[0].Status.State != StateDone {
		t.Errorf("gap replay does not lead with a terminal status snapshot: %+v", evs[0])
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[0].Seq+int64(i) {
			t.Errorf("replay not contiguous at %d", i)
		}
	}
	// A stale cursor beyond the head is reset the same way.
	stale, err := m.Events(context.Background(), st.ID, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != len(evs) || stale[0].Type != "status" {
		t.Errorf("stale cursor replay: %d events", len(stale))
	}
}

func TestJobEventsUnknownJob(t *testing.T) {
	m := newTestManager(t, Config{})
	if _, err := m.Events(context.Background(), "jdeadbeef", -1); !errors.Is(err, ErrNotFound) {
		t.Errorf("Events on unknown job: %v", err)
	}
	if _, err := m.Get("jdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on unknown job: %v", err)
	}
	if _, err := m.Cancel("jdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel on unknown job: %v", err)
	}
	if _, err := m.Resume("jdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Resume on unknown job: %v", err)
	}
}

// TestJobsRaceStress hammers every manager surface concurrently; its value
// is under -race (the weekly CI race job runs it full-length).
func TestJobsRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run without -short (weekly race job)")
	}
	m := newTestManager(t, Config{Workers: 4, TTL: 50 * time.Millisecond})
	specs := []AnalyzeSpec{
		{P: 0.25, Gamma: 0.5, Depth: 1, Forks: 1, Len: 3, Epsilon: 1e-3, BoundOnly: true},
		{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, Len: 3, Epsilon: 1e-3},
		{P: 0.35, Gamma: 0.5, Depth: 2, Forks: 1, Len: 3, Epsilon: 1e-3, BoundOnly: true},
	}
	stop := make(chan struct{})
	done := make(chan struct{}, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				spec := specs[(g+i)%len(specs)]
				st, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &spec})
				if err != nil {
					continue // queue full etc.
				}
				if i%3 == 0 {
					m.Cancel(st.ID)
					m.Resume(st.ID)
				}
				m.Get(st.ID)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, st := range m.List(Filter{}) {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
					m.Events(ctx, st.ID, -1)
					cancel()
				}
				m.Stats()
			}
		}()
	}
	time.Sleep(1500 * time.Millisecond)
	close(stop)
	for i := 0; i < 8; i++ {
		<-done
	}
}

// BenchmarkJobSubmitOverhead measures the job layer's per-job cost —
// submit, queue, dispatch, record, events — with the solve itself answered
// from the service's result cache, so the harness is what is timed.
func BenchmarkJobSubmitOverhead(b *testing.B) {
	svc := selfishmining.NewService(selfishmining.ServiceConfig{})
	spec := AnalyzeSpec{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, Len: 3, Epsilon: 1e-3}
	if _, err := svc.AnalyzeContext(context.Background(), spec.Params(), spec.Options()...); err != nil {
		b.Fatal(err)
	}
	m, err := New(svc, Config{Workers: 2, TTL: -1, MaxFinished: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Close(ctx)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &spec})
		if err != nil {
			b.Fatal(err)
		}
		after := int64(-1)
		for {
			evs, err := m.Events(context.Background(), st.ID, after)
			if err != nil {
				b.Fatal(err)
			}
			if len(evs) == 0 {
				break
			}
			after = evs[len(evs)-1].Seq
		}
	}
}

// TestJobSweepResumeResetsPointProgress: a sweep canceled mid-grid and
// resumed recomputes from scratch, so the re-run's point counter restarts
// instead of accumulating past PointsTotal. The cancel fires on the second
// streamed point: the two configurations' p = 0 points, which the sweep
// answers before it starts any solve, so the first run is still
// interrupted however many points one solve unit holds.
func TestJobSweepResumeResetsPointProgress(t *testing.T) {
	spec := SweepSpec{
		Gamma: 0.5, PGrid: []float64{0, 0.05, 0.1, 0.15, 0.2},
		Configs: []SweepConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}}, Len: 3, Epsilon: 1e-3,
	}
	m := newTestManager(t, Config{})
	var once sync.Once
	m.pointGate = func(id string, done int) {
		if done == 2 {
			once.Do(func() { m.Cancel(id) }) // only the first run is interrupted
		}
	}
	st, err := m.Submit(Request{Kind: KindSweep, Sweep: &spec})
	if err != nil {
		t.Fatal(err)
	}
	canceled := waitState(t, m, st.ID, StateCanceled)
	if canceled.Progress.PointsDone < 2 {
		t.Fatalf("canceled after %d points, gate fired at 2", canceled.Progress.PointsDone)
	}
	if _, err := m.Resume(st.ID); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, st.ID, StateDone)
	if done.Progress.PointsDone != done.Progress.PointsTotal {
		t.Errorf("resumed sweep ended at %d/%d points; the counter must reset on re-run",
			done.Progress.PointsDone, done.Progress.PointsTotal)
	}
	if done.SweepResult == nil || len(done.SweepResult.Series) == 0 {
		t.Error("resumed sweep has no panel")
	}
}
