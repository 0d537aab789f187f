package jobs

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/selfishmining"
)

// fastReplicaConfig is the shared-store timing used by the in-process
// failover tests: everything is sped up so the poll/heartbeat machinery
// turns over many times within a test.
func fastReplicaConfig(store LeaseStore, id string) Config {
	return Config{
		Store: store, ReplicaID: id, Workers: 1,
		LeaseTTL:     500 * time.Millisecond,
		Heartbeat:    100 * time.Millisecond,
		PollInterval: 50 * time.Millisecond,
	}
}

func newReplica(t *testing.T, dir, id string) (*Manager, *selfishmining.Service) {
	t.Helper()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := selfishmining.NewService(selfishmining.ServiceConfig{})
	m, err := New(svc, fastReplicaConfig(store, id))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Close(ctx)
	})
	return m, svc
}

// TestTwoReplicasShareQueue runs two replicas over one shared directory:
// jobs submitted on one replica are claimed exactly once across the
// fleet, and both replicas' views converge on identical results.
func TestTwoReplicasShareQueue(t *testing.T) {
	dir := t.TempDir()
	mA, _ := newReplica(t, dir, "a")
	mB, _ := newReplica(t, dir, "b")

	specs := []AnalyzeSpec{smallSpec, smallSpec, smallSpec, smallSpec}
	specs[1].P, specs[2].P, specs[3].P = 0.25, 0.35, 0.2
	ids := make([]string, len(specs))
	for i := range specs {
		st, err := mA.Submit(Request{Kind: KindAnalyze, Analyze: &specs[i]})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		fromA := waitState(t, mA, id, StateDone)
		// B discovers A's submissions on its next poll; wait for that
		// before asserting on its mirrored view.
		known := time.Now().Add(10 * time.Second)
		for {
			if _, err := mB.Get(id); err == nil {
				break
			} else if time.Now().After(known) {
				t.Fatalf("replica b never discovered job %s: %v", id, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		fromB := waitState(t, mB, id, StateDone) // B mirrors via poll even when A ran it
		equalJobResults(t, fmt.Sprintf("job %d via A", i), reference(t, specs[i]), fromA.Result)
		equalJobResults(t, fmt.Sprintf("job %d via B", i), fromA.Result, fromB.Result)
	}

	// Exactly one claim and one release per job across the fleet: the
	// lease protocol, not luck, keeps replicas from double-running.
	stA, stB := mA.Stats(), mB.Stats()
	if stA.Leases == nil || stB.Leases == nil {
		t.Fatalf("shared-mode stats missing lease counters: %+v / %+v", stA, stB)
	}
	if got := stA.Leases.Acquired + stB.Leases.Acquired; got != uint64(len(specs)) {
		t.Errorf("fleet acquired %d leases for %d jobs", got, len(specs))
	}
	if got := stA.Leases.Released + stB.Leases.Released; got != uint64(len(specs)) {
		t.Errorf("fleet released %d leases for %d jobs", got, len(specs))
	}
	if stA.Replica != "a" || stB.Replica != "b" {
		t.Errorf("stats replica ids = %q, %q", stA.Replica, stB.Replica)
	}

	// Both replicas publish presence; each sees the other.
	deadline := time.Now().Add(5 * time.Second)
	for {
		reps, err := mB.Replicas()
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) == 2 && reps[0].Replica == "a" && reps[1].Replica == "b" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica registry = %+v, want a and b", reps)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepHandoffAcrossReplicas interrupts an adaptive sweep on replica
// A, shuts A down, and resumes the job on a brand-new replica B over the
// same directory: B must adopt A's persisted checkpoint through the
// lease claim, replay it without re-solving, and finish bitwise
// identical to an uninterrupted run — under a strictly higher token.
func TestSweepHandoffAcrossReplicas(t *testing.T) {
	spec := adaptiveSweepSpec()
	dir := t.TempDir()

	storeA, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mA, err := New(selfishmining.NewService(selfishmining.ServiceConfig{}), fastReplicaConfig(storeA, "a"))
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	mA.pointGate = func(id string, done int) {
		if done == len(spec.PGrid)+1 {
			once.Do(func() { mA.Cancel(id) })
		}
	}
	st, err := mA.Submit(Request{Kind: KindSweep, Sweep: &spec})
	if err != nil {
		t.Fatal(err)
	}
	canceled := waitState(t, mA, st.ID, StateCanceled)
	checkpointed := canceled.Progress.PointsDone
	if checkpointed <= len(spec.PGrid) {
		t.Fatalf("canceled after %d points, want > %d (mid-refinement)", checkpointed, len(spec.PGrid))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mA.Close(ctx); err != nil {
		t.Fatal(err)
	}

	storeB, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svcB := selfishmining.NewService(selfishmining.ServiceConfig{})
	mB, err := New(svcB, fastReplicaConfig(storeB, "b"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mB.Close(ctx)
	})
	if _, err := mB.Resume(st.ID); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, mB, st.ID, StateDone)
	got, err := done.SweepResult.Figure()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSweep(t, spec)
	equalFigures(t, "handed-off adaptive sweep", want, got)

	// The checkpointed points were replayed, not re-solved, on B's cold
	// service (baseline series never touch the solver).
	attackPoints := len(want.X) * len(spec.Configs)
	if solves := int(svcB.Stats().Solves); solves > attackPoints-checkpointed {
		t.Errorf("handed-off run solved %d points, want <= %d (%d attack points, %d checkpointed)",
			solves, attackPoints-checkpointed, attackPoints, checkpointed)
	}
	stB := mB.Stats()
	if stB.Leases == nil || stB.Leases.Acquired < 1 || stB.Leases.Stolen != 0 {
		t.Errorf("clean handoff lease counters = %+v, want >=1 acquired, 0 stolen", stB.Leases)
	}
	// The final snapshot was persisted under B's fencing token, which is
	// strictly above A's spent token.
	rec, ok, err := storeB.Get(st.ID)
	if err != nil || !ok {
		t.Fatalf("final record: %v, %v", ok, err)
	}
	if rec.Owner != "b" || rec.LeaseToken < 2 {
		t.Errorf("final record owned by %q at token %d, want b at token >= 2", rec.Owner, rec.LeaseToken)
	}
}

// TestReplicaFailoverKillMidSweep is the crash test the in-process tests
// cannot be: a real replica process is SIGKILLed while holding a lease
// mid-sweep (its heartbeat dies with it), and a second replica steals
// the lapsed lease, resumes from the persisted checkpoint, and finishes
// bitwise identical to an uninterrupted run.
func TestReplicaFailoverKillMidSweep(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestReplicaCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "JOBS_REPLICA_HELPER=1", "JOBS_REPLICA_DIR="+dir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	// The helper prints its job ID, then HOLDING once the sweep is
	// parked mid-refinement with >= coarse+1 points persisted.
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var jobID string
	holding := false
	timeout := time.After(90 * time.Second)
	for !holding {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("helper replica exited before holding (job %q)", jobID)
			}
			if rest, found := strings.CutPrefix(line, "JOB "); found {
				jobID = rest
			}
			if line == "HOLDING" {
				holding = true
			}
		case <-timeout:
			t.Fatal("helper replica never reached the hold point")
		}
	}
	if jobID == "" {
		t.Fatal("helper replica never printed its job ID")
	}
	// Crash: no cleanup, no release — the lease dies by expiry alone.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	storeB, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svcB := selfishmining.NewService(selfishmining.ServiceConfig{})
	mB, err := New(svcB, Config{
		Store: storeB, ReplicaID: "crash-b", Workers: 1,
		LeaseTTL: time.Second, Heartbeat: 200 * time.Millisecond, PollInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mB.Close(ctx)
	})

	spec := adaptiveSweepSpec()
	done := waitState(t, mB, jobID, StateDone)
	got, err := done.SweepResult.Figure()
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSweep(t, spec)
	equalFigures(t, "stolen adaptive sweep", want, got)

	// The dead replica persisted exactly coarse+1 points before its hold;
	// the thief replays them from the checkpoint instead of re-solving.
	checkpointed := len(spec.PGrid) + 1
	attackPoints := len(want.X) * len(spec.Configs)
	if solves := int(svcB.Stats().Solves); solves > attackPoints-checkpointed {
		t.Errorf("failover run solved %d points, want <= %d (%d attack points, %d checkpointed)",
			solves, attackPoints-checkpointed, attackPoints, checkpointed)
	}
	stB := mB.Stats()
	if stB.Leases == nil || stB.Leases.Stolen < 1 {
		t.Errorf("failover lease counters = %+v, want >= 1 stolen", stB.Leases)
	}
	// The final snapshot landed under the thief's higher fencing token.
	rec, ok, err := storeB.Get(jobID)
	if err != nil || !ok {
		t.Fatalf("final record: %v, %v", ok, err)
	}
	if rec.Owner != "crash-b" || rec.LeaseToken < 2 {
		t.Errorf("final record owned by %q at token %d, want crash-b at token >= 2", rec.Owner, rec.LeaseToken)
	}
	// The dead replica's presence record survives alongside the thief's.
	reps, err := mB.Replicas()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Replica != "crash-a" || reps[1].Replica != "crash-b" {
		t.Errorf("replica registry = %+v, want crash-a and crash-b", reps)
	}
}

// TestReplicaCrashHelper is the victim process for
// TestReplicaFailoverKillMidSweep; it only runs when re-executed by that
// test with the JOBS_REPLICA_HELPER environment set. It starts an
// adaptive sweep over the shared directory, parks the worker forever
// once the checkpoint holds coarse+1 points (heartbeats keep renewing
// the lease), and waits to be killed.
func TestReplicaCrashHelper(t *testing.T) {
	if os.Getenv("JOBS_REPLICA_HELPER") != "1" {
		t.Skip("helper process for TestReplicaFailoverKillMidSweep")
	}
	dir := os.Getenv("JOBS_REPLICA_DIR")
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := adaptiveSweepSpec()
	hold := make(chan struct{}) // never closed: only SIGKILL ends this process
	m, err := New(selfishmining.NewService(selfishmining.ServiceConfig{}), Config{
		Store: store, ReplicaID: "crash-a", Workers: 1,
		LeaseTTL: time.Second, Heartbeat: 200 * time.Millisecond, PollInterval: 100 * time.Millisecond,
		Gates: &Gates{Point: func(id string, done int) {
			if done == len(spec.PGrid)+1 {
				fmt.Println("HOLDING")
				<-hold
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(Request{Kind: KindSweep, Sweep: &spec})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("JOB %s\n", st.ID)
	<-hold
}

// finalWriteGate is a LeaseStore over a DirStore that parks the first
// fenced write of a terminal record until open is called: the job is
// finished in memory while its final snapshot and lease release are
// still on their way to the store.
type finalWriteGate struct {
	*DirStore
	reached, release chan struct{}
	park, unpark     sync.Once
}

func (s *finalWriteGate) PutLeased(rec *Record, l Lease) error {
	if rec.State.Terminal() {
		s.park.Do(func() { close(s.reached); <-s.release })
	}
	return s.DirStore.PutLeased(rec, l)
}

func (s *finalWriteGate) open() { s.unpark.Do(func() { close(s.release) }) }

// TestPollDuringFinalWriteKeepsJobDone: a poll pass that reads the store
// while the replica's own final write is in flight sees the job's
// previous running record under this replica's live lease. It must leave
// the finished job alone, not revert it to running without its result
// (and answer Cancel with ErrRemote on its own replica).
func TestPollDuringFinalWriteKeepsJobDone(t *testing.T) {
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := &finalWriteGate{DirStore: ds, reached: make(chan struct{}), release: make(chan struct{})}
	cfg := fastReplicaConfig(store, "a")
	cfg.PollInterval = time.Hour // the test runs the poll pass itself
	m := newTestManager(t, cfg)
	t.Cleanup(store.open) // runs before the manager's Close
	st, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("the job never wrote its final snapshot")
	}
	m.pollOnce()
	got, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Result == nil {
		t.Errorf("after a poll during the final write: state %s, result present %v; want done with its result",
			got.State, got.Result != nil)
	}
	if _, err := m.Cancel(st.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("Cancel during the final write = %v, want ErrFinished", err)
	}
	if n := m.Stats().RemoteRunning; n != 0 {
		t.Errorf("RemoteRunning = %d during the final write, want 0", n)
	}
	store.open()
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().Leases.Released != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("lease never released: %+v", m.Stats().Leases)
		}
		time.Sleep(time.Millisecond)
	}
	m.pollOnce()
	done := waitState(t, m, st.ID, StateDone)
	equalJobResults(t, "finished under a poll", reference(t, smallSpec), done.Result)
}

// slowPutStore is a LeaseStore over a DirStore whose unleased writes land
// 50 ms late, so a worker claims a resumed job before Resume's own write
// reaches the store.
type slowPutStore struct{ *DirStore }

func (s slowPutStore) Put(rec *Record) error {
	time.Sleep(50 * time.Millisecond)
	return s.DirStore.Put(rec)
}

// TestResumeSurvivesClaimBeforeItsWrite: the worker that picks up a
// resumed job reads the store before Resume's write lands and finds the
// job's canceled record from before the Resume. That record is older
// than the local job, so the claim must run the job, not adopt the stale
// cancellation as another replica's outcome.
func TestResumeSurvivesClaimBeforeItsWrite(t *testing.T) {
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastReplicaConfig(slowPutStore{ds}, "a")
	cfg.PollInterval = time.Hour // no poll pass may mend the job behind the claim
	m := newTestManager(t, cfg)
	var once sync.Once
	m.progressGate = func(id string, iter int) {
		if iter == 2 {
			once.Do(func() { m.Cancel(id) })
		}
	}
	st, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateCanceled)
	if _, err := m.Resume(st.ID); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, st.ID, StateDone)
	if done.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", done.Resumes)
	}
	equalJobResults(t, "resumed past a stale record", reference(t, smallSpec), done.Result)
}

// releaseAfterResumeStore is a finalWriteGate whose lease release waits
// until a resumed record's unleased write has come back, so the store
// sees that write while the replica's own lease is still live and
// refuses it. Its second Acquire fails: the resumed job's first claim
// misses, and the next poll pass, not a worker, reads what the store
// holds.
type releaseAfterResumeStore struct {
	*finalWriteGate
	resumeWritten chan struct{}
	written       sync.Once
	acquires      atomic.Int32
}

func (s *releaseAfterResumeStore) Put(rec *Record) error {
	err := s.DirStore.Put(rec)
	if rec.Resumes > 0 {
		s.written.Do(func() { close(s.resumeWritten) })
	}
	return err
}

func (s *releaseAfterResumeStore) Release(l Lease) error {
	select {
	case <-s.resumeWritten:
	case <-time.After(10 * time.Second):
	}
	return s.DirStore.Release(l)
}

func (s *releaseAfterResumeStore) Acquire(id, owner string, ttl time.Duration) (Lease, error) {
	if s.acquires.Add(1) == 2 {
		return Lease{}, fmt.Errorf("%w: the second claim is refused", ErrLeaseHeld)
	}
	return s.DirStore.Acquire(id, owner, ttl)
}

// TestResumeDuringFinalWriteIsPersisted: a Resume that lands between a
// job's final fenced write and its lease release writes unleased, and a
// shared store refuses that write while the replica's own lease is
// live. The resumed job must reach the store all the same, so a poll
// pass that runs before any worker claims the job keeps it resumed
// instead of adopting the cancellation from before the Resume.
func TestResumeDuringFinalWriteIsPersisted(t *testing.T) {
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := &releaseAfterResumeStore{
		finalWriteGate: &finalWriteGate{DirStore: ds, reached: make(chan struct{}), release: make(chan struct{})},
		resumeWritten:  make(chan struct{}),
	}
	cfg := fastReplicaConfig(store, "a")
	cfg.LeaseTTL = time.Minute   // the lease must stay live across the release window
	cfg.PollInterval = time.Hour // the test runs the poll pass itself
	m := newTestManager(t, cfg)
	t.Cleanup(store.open) // runs before the manager's Close
	var once sync.Once
	m.progressGate = func(id string, iter int) {
		if iter == 2 {
			once.Do(func() { m.Cancel(id) })
		}
	}
	st, err := m.Submit(Request{Kind: KindAnalyze, Analyze: &smallSpec})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("the job never wrote its final snapshot")
	}
	resumed := make(chan error, 1)
	go func() {
		_, err := m.Resume(st.ID)
		resumed <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for got, _ := m.Get(st.ID); got.Resumes != 1; got, _ = m.Get(st.ID) {
		if time.Now().After(deadline) {
			t.Fatal("Resume never landed")
		}
		time.Sleep(time.Millisecond)
	}
	store.open()
	if err := <-resumed; err != nil {
		t.Fatal(err)
	}
	for {
		m.mu.Lock()
		claimed := store.acquires.Load() >= 2 && m.jobs[st.ID].inFlight == 0
		m.mu.Unlock()
		if claimed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the resumed job was never claimed")
		}
		time.Sleep(time.Millisecond)
	}
	m.pollOnce()
	done := waitState(t, m, st.ID, StateDone)
	if done.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", done.Resumes)
	}
	equalJobResults(t, "resumed during the final write", reference(t, smallSpec), done.Result)
}
