package selfishmining

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cancelAfterChecks is a context whose Err() flips to context.Canceled
// after n observations. The solver layers poll ctx.Err() at their
// deterministic checkpoints (value-iteration sweep boundaries and
// binary-search steps), so this fixture cancels an analysis at an exact,
// reproducible checkpoint — no timing, no flakes. Done() is inherited from
// the embedded Background context (nil channel), which is fine: the paths
// under test poll Err().
type cancelAfterChecks struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfterChecks) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// cancelFamilyCases is one small configuration per registered model
// family, sized so an analysis takes hundreds of checkpoints (plenty of
// room to cancel mid-flight) but finishes fast.
var cancelFamilyCases = []struct {
	name   string
	params AttackParams
}{
	{"fork", AttackParams{Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 3}},
	{"singletree", AttackParams{Model: "singletree", Adversary: 0.3, Switching: 0.5, Depth: 1, Forks: 3, MaxForkLen: 3}},
	{"nakamoto", AttackParams{Model: "nakamoto", Adversary: 0.4, Switching: 0, Depth: 1, Forks: 1, MaxForkLen: 8}},
}

// TestCancelAndRetryDeterminism is the determinism suite's cancellation
// property: cancel a solve at a random sweep boundary, re-run it to
// completion on the SAME service (so any cache poisoning would show), and
// the result must be bitwise identical to an uncancelled cold solve on a
// fresh service — for every model family.
func TestCancelAndRetryDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	for _, tc := range cancelFamilyCases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := NewService(ServiceConfig{}).AnalyzeContext(context.Background(), tc.params, WithEpsilon(1e-3))
			if err != nil {
				t.Fatalf("cold reference: %v", err)
			}
			for trial := 0; trial < 3; trial++ {
				svc := NewService(ServiceConfig{})
				n := 1 + rng.Int63n(60)
				cctx := &cancelAfterChecks{Context: context.Background(), n: n}
				_, cerr := svc.AnalyzeContext(cctx, tc.params, WithEpsilon(1e-3))
				if cerr == nil {
					t.Fatalf("trial %d: solve survived cancellation after %d checkpoints", trial, n)
				}
				if !errors.Is(cerr, ErrCanceled) {
					t.Fatalf("trial %d: error %v does not match ErrCanceled", trial, cerr)
				}
				if !errors.Is(cerr, context.Canceled) {
					t.Fatalf("trial %d: error %v does not match context.Canceled", trial, cerr)
				}
				got, err := svc.AnalyzeContext(context.Background(), tc.params, WithEpsilon(1e-3))
				if err != nil {
					t.Fatalf("trial %d: retry after cancel: %v", trial, err)
				}
				equalAnalyses(t, tc.name, ref, got)
				st := svc.Stats()
				if st.Canceled != 1 {
					t.Errorf("trial %d: Canceled = %d, want 1", trial, st.Canceled)
				}
				if st.DeadlineExceeded != 0 {
					t.Errorf("trial %d: DeadlineExceeded = %d, want 0", trial, st.DeadlineExceeded)
				}
			}
		})
	}
}

// TestCancelErrorMetadata: an interrupted analysis reports the certified
// partial bracket, and the bracket is a genuine enclosure of the final
// answer.
func TestCancelErrorMetadata(t *testing.T) {
	params := cancelFamilyCases[0].params
	ref, err := Analyze(params, WithEpsilon(1e-3), WithBoundOnly())
	if err != nil {
		t.Fatal(err)
	}
	// Enough checkpoints to get into the first solves, not enough to
	// finish (the determinism test shows this model needs far more).
	cctx := &cancelAfterChecks{Context: context.Background(), n: 50}
	_, cerr := AnalyzeContext(cctx, params, WithEpsilon(1e-3), WithBoundOnly())
	if cerr == nil {
		t.Fatal("solve finished before 50 checkpoints; cancellation never engaged")
	}
	var ce *CancelError
	if !errors.As(cerr, &ce) {
		t.Fatalf("error %T is not a *CancelError: %v", cerr, cerr)
	}
	if ce.BetaLow > ref.ERRev || ce.BetaUp < ref.ERRev {
		t.Errorf("partial bracket [%v, %v] does not enclose the final ERRev %v", ce.BetaLow, ce.BetaUp, ref.ERRev)
	}
	if ce.BetaLow < 0 || ce.BetaUp > 1 || ce.BetaLow > ce.BetaUp {
		t.Errorf("malformed partial bracket [%v, %v]", ce.BetaLow, ce.BetaUp)
	}
	if ce.Sweeps == 0 {
		t.Error("CancelError.Sweeps = 0 for a mid-solve cancellation")
	}
}

// TestDeadlineClassification: a deadline interruption matches both
// ErrCanceled and context.DeadlineExceeded (not context.Canceled), and is
// tallied on the DeadlineExceeded counter.
func TestDeadlineClassification(t *testing.T) {
	svc := NewService(ServiceConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // deadline has certainly passed
	_, err := svc.AnalyzeContext(ctx, cancelFamilyCases[0].params, WithEpsilon(1e-3))
	if err == nil {
		t.Fatal("expired deadline produced a result")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v must match ErrCanceled and context.DeadlineExceeded", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("deadline error %v must not match context.Canceled", err)
	}
	st := svc.Stats()
	if st.DeadlineExceeded != 1 || st.Canceled != 0 {
		t.Errorf("counters (canceled=%d, deadline=%d), want (0, 1)", st.Canceled, st.DeadlineExceeded)
	}
	if st.Solves != 0 {
		t.Errorf("Solves = %d for a request dead on arrival, want 0", st.Solves)
	}
}

// TestCoalescedFollowerCancel is the satellite regression test: a
// coalesced follower that cancels its wait must return promptly with
// ErrCanceled while the leader's solve finishes undisturbed — no solve
// counters incremented by the follower, no result-cache or warm-start
// entries evicted or poisoned.
func TestCoalescedFollowerCancel(t *testing.T) {
	svc := NewService(ServiceConfig{})
	params := AttackParams{Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 3}

	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	leaderDone := make(chan *Analysis, 1)
	go func() {
		// The leader parks inside its solve on the first progress call,
		// guaranteeing the follower coalesces against a live in-flight
		// entry (no timing races).
		res, err := svc.AnalyzeContext(context.Background(), params,
			WithEpsilon(1e-3),
			WithProgress(func(lo, up float64, iter int) {
				once.Do(func() { close(started) })
				<-gate
			}))
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		leaderDone <- res
	}()
	<-started

	fctx, fcancel := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		// Identical request and options (the progress callback is not part
		// of the key): this coalesces behind the parked leader.
		_, err := svc.AnalyzeContext(fctx, params, WithEpsilon(1e-3))
		followerErr <- err
	}()
	// Let the follower reach the singleflight wait, then cancel it. The
	// sleep only makes the intended interleaving overwhelmingly likely;
	// the assertions below hold in either interleaving.
	time.Sleep(50 * time.Millisecond)
	fcancel()
	select {
	case err := <-followerErr:
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("follower error %v, want ErrCanceled/context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled follower did not unblock while the leader was parked")
	}
	if n := svc.Stats().Solves; n != 1 {
		t.Errorf("Solves = %d after follower cancel, want 1 (leader only)", n)
	}

	close(gate) // release the leader
	var leaderRes *Analysis
	select {
	case leaderRes = <-leaderDone:
	case <-time.After(30 * time.Second):
		t.Fatal("leader did not finish")
	}
	if leaderRes == nil {
		t.Fatal("leader returned no result")
	}

	// The leader's result must have been cached untainted, and a re-run
	// must replay it bitwise.
	res, info, err := svc.AnalyzeDetailedContext(context.Background(), params, WithEpsilon(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached {
		t.Error("leader's result missing from the cache after follower cancel")
	}
	if math.Float64bits(res.ERRev) != math.Float64bits(leaderRes.ERRev) {
		t.Errorf("cached ERRev %v != leader's %v", res.ERRev, leaderRes.ERRev)
	}
	st := svc.Stats()
	if st.Solves != 1 {
		t.Errorf("Solves = %d after replay, want 1", st.Solves)
	}
	if st.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1 (the follower)", st.Canceled)
	}
	if st.WarmPuts == 0 {
		t.Error("leader's warm-start vector was not retained")
	}
}

// TestQueuedRequestCancel: a request parked on the MaxConcurrent semaphore
// unblocks immediately on its own cancellation without ever counting as a
// solve or touching the slot.
func TestQueuedRequestCancel(t *testing.T) {
	svc := NewService(ServiceConfig{MaxConcurrent: 1})
	occupant := AttackParams{Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 3}
	queued := AttackParams{Adversary: 0.25, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 3}

	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	occupantDone := make(chan error, 1)
	go func() {
		_, err := svc.AnalyzeContext(context.Background(), occupant,
			WithEpsilon(1e-3),
			WithProgress(func(lo, up float64, iter int) {
				once.Do(func() { close(started) })
				<-gate
			}))
		occupantDone <- err
	}()
	<-started // the only slot is now held, inside a parked solve

	qctx, qcancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, err := svc.AnalyzeContext(qctx, queued, WithEpsilon(1e-3))
		queuedErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the semaphore wait
	qcancel()
	select {
	case err := <-queuedErr:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("queued request error %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled queued request did not unblock")
	}
	if n := svc.Stats().Solves; n != 1 {
		t.Errorf("Solves = %d, want 1 (the occupant; the queued request never started)", n)
	}

	close(gate)
	if err := <-occupantDone; err != nil {
		t.Fatalf("occupant: %v", err)
	}
	// The canceled wait must not have corrupted the semaphore: the queued
	// request runs fine when retried.
	if _, err := svc.AnalyzeContext(context.Background(), queued, WithEpsilon(1e-3)); err != nil {
		t.Fatalf("retry of canceled queued request: %v", err)
	}
}

// TestSweepStreamingDeliversEveryPoint: OnPoint receives one callback per
// attack-curve grid point (including the p=0 shortcut), each bitwise equal
// to the final figure's value, and streaming leaves the figure itself
// untouched.
func TestSweepStreamingDeliversEveryPoint(t *testing.T) {
	opts := SweepOptions{
		Gamma:      0.5,
		PGrid:      []float64{0, 0.1, 0.2, 0.3},
		Configs:    []AttackConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}},
		MaxForkLen: 3,
		TreeWidth:  3,
		Epsilon:    1e-3,
		Workers:    4,
	}
	var mu sync.Mutex
	streamed := map[SweepPoint]bool{}
	opts.OnPoint = func(pt SweepPoint) {
		mu.Lock()
		defer mu.Unlock()
		key := SweepPoint{Config: pt.Config, Series: pt.Series, PIndex: pt.PIndex, P: pt.P, Gamma: pt.Gamma, ERRev: pt.ERRev}
		if streamed[key] {
			t.Errorf("point %+v streamed twice", pt)
		}
		streamed[key] = true
	}
	fig, err := SweepContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := len(opts.Configs) * len(opts.PGrid)
	if len(streamed) != want {
		t.Fatalf("streamed %d points, want %d", len(streamed), want)
	}
	// Every streamed value must be bitwise the figure's value, under the
	// figure's own series name. The attack series follow the two baseline
	// series (honest, single-tree).
	for ci, cfg := range opts.Configs {
		series := fig.Series[2+ci]
		for pi, p := range opts.PGrid {
			key := SweepPoint{Config: cfg, Series: series.Name, PIndex: pi, P: p, Gamma: opts.Gamma, ERRev: series.Values[pi]}
			if !streamed[key] {
				t.Errorf("series %q point %d (p=%v, errev=%v) missing from the stream", series.Name, pi, p, series.Values[pi])
			}
		}
	}
}

// TestSweepCancelAndRetry: a canceled sweep returns ErrCanceled, and
// re-running it on the same service (reusing whatever points completed)
// still produces the bitwise-identical panel.
func TestSweepCancelAndRetry(t *testing.T) {
	opts := SweepOptions{
		Gamma:      0.5,
		PGrid:      []float64{0, 0.1, 0.2, 0.3},
		Configs:    []AttackConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}},
		MaxForkLen: 3,
		TreeWidth:  3,
		Epsilon:    1e-3,
		Workers:    1, // serial draw order makes the checkpoint sequence reproducible
	}
	// The reference run counts the sweep's checkpoints; the canceled run
	// stops halfway through the same sequence, so it lands mid-panel
	// whether the points batch (one checkpoint per shared sweep) or solve
	// one at a time.
	counter := &cancelAfterChecks{Context: context.Background(), n: math.MaxInt64}
	ref, err := SweepContext(counter, opts)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(ServiceConfig{})
	n := counter.calls.Load() / 2
	cctx := &cancelAfterChecks{Context: context.Background(), n: n}
	if _, cerr := svc.SweepContext(cctx, opts); cerr == nil {
		t.Fatalf("sweep survived cancellation after %d of %d checkpoints", n, counter.calls.Load())
	} else if !errors.Is(cerr, ErrCanceled) {
		t.Fatalf("sweep cancel error %v, want ErrCanceled", cerr)
	}
	t.Logf("canceled after %d of %d checkpoints", n, counter.calls.Load())
	if n := svc.Stats().Canceled; n != 1 {
		t.Errorf("Canceled = %d after one canceled sweep, want 1", n)
	}
	got, err := svc.SweepContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("retry after canceled sweep: %v", err)
	}
	for i, s := range ref.Series {
		for j := range s.Values {
			if math.Float64bits(got.Series[i].Values[j]) != math.Float64bits(s.Values[j]) {
				t.Errorf("series %q point %d: retry %v != reference %v", s.Name, j, got.Series[i].Values[j], s.Values[j])
			}
		}
	}
}

// TestProgressCallback: WithProgress reports every binary-search step with
// a monotonically narrowing bracket ending at the result's bracket.
func TestProgressCallback(t *testing.T) {
	params := cancelFamilyCases[0].params
	type step struct {
		lo, up float64
		iter   int
	}
	var steps []step
	res, err := AnalyzeContext(context.Background(), params,
		WithEpsilon(1e-3), WithBoundOnly(),
		WithProgress(func(lo, up float64, iter int) {
			steps = append(steps, step{lo, up, iter})
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != res.Iterations {
		t.Fatalf("progress fired %d times, result reports %d iterations", len(steps), res.Iterations)
	}
	prevWidth := 1.0
	for i, st := range steps {
		if st.iter != i+1 {
			t.Errorf("step %d reported iteration %d", i, st.iter)
		}
		if w := st.up - st.lo; w > prevWidth {
			t.Errorf("step %d: bracket widened to %v from %v", i, w, prevWidth)
		} else {
			prevWidth = st.up - st.lo
		}
	}
	last := steps[len(steps)-1]
	if math.Float64bits(last.lo) != math.Float64bits(res.ERRev) || math.Float64bits(last.up) != math.Float64bits(res.ERRevUpper) {
		t.Errorf("final progress bracket [%v, %v] != result bracket [%v, %v]", last.lo, last.up, res.ERRev, res.ERRevUpper)
	}
}

// TestDeprecatedWrappersBitwise: the context-free v1 names must stay exact
// aliases of the v2 entry points under context.Background().
func TestDeprecatedWrappersBitwise(t *testing.T) {
	params := cancelFamilyCases[0].params
	v2, err := AnalyzeContext(context.Background(), params, WithEpsilon(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := Analyze(params, WithEpsilon(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	equalAnalyses(t, "Analyze vs AnalyzeContext", v1, v2)
}

// TestFollowerSurvivesLeaderCancel: a follower coalesced behind a leader
// whose OWN context dies must not inherit that cancellation — its context
// is live, so it retries as a fresh leader and gets a real result. (The
// review scenario: client A sets a 1ms deadline, client B none; B must be
// solved, not answered 504.)
func TestFollowerSurvivesLeaderCancel(t *testing.T) {
	svc := NewService(ServiceConfig{})
	params := AttackParams{Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 3}
	ref, err := NewService(ServiceConfig{}).AnalyzeContext(context.Background(), params, WithEpsilon(1e-3))
	if err != nil {
		t.Fatal(err)
	}

	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	leaderErr := make(chan error, 1)
	go func() {
		// The leader parks mid-solve on its first progress call so the
		// follower can coalesce deterministically.
		_, err := svc.AnalyzeContext(lctx, params,
			WithEpsilon(1e-3),
			WithProgress(func(lo, up float64, iter int) {
				once.Do(func() { close(started) })
				<-gate
			}))
		leaderErr <- err
	}()
	<-started

	type res struct {
		a   *Analysis
		err error
	}
	followerDone := make(chan res, 1)
	go func() {
		a, err := svc.AnalyzeContext(context.Background(), params, WithEpsilon(1e-3))
		followerDone <- res{a, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the follower coalesce
	lcancel()                         // kill the LEADER's context only
	close(gate)                       // leader resumes, observes its cancel at the next checkpoint

	select {
	case err := <-leaderErr:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("leader err = %v, want ErrCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("leader never returned")
	}
	select {
	case r := <-followerDone:
		if r.err != nil {
			t.Fatalf("follower with a live context inherited the leader's fate: %v", r.err)
		}
		equalAnalyses(t, "follower-after-leader-cancel", ref, r.a)
	case <-time.After(30 * time.Second):
		t.Fatal("follower never completed")
	}
	st := svc.Stats()
	if st.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1 (the leader only)", st.Canceled)
	}
	if st.Solves != 2 {
		t.Errorf("Solves = %d, want 2 (canceled leader + follower's retry)", st.Solves)
	}
}
