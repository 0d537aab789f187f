package jobs

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestDirStore(t *testing.T) *DirStore {
	t.Helper()
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func leaseTestRecord(id string) *Record {
	spec := smallSpec
	return &Record{Status: Status{
		ID: id, Kind: KindAnalyze, State: StateRunning,
		Analyze: &spec, SubmittedAt: time.Now(),
	}}
}

func TestDirStoreLeaseLifecycle(t *testing.T) {
	s := newTestDirStore(t)
	l1, err := s.Acquire("j1", "a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Token != 1 || l1.Owner != "a" {
		t.Fatalf("first lease = %+v, want token 1 owner a", l1)
	}
	// A live lease blocks other owners...
	if _, err := s.Acquire("j1", "b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("acquire over a live lease: %v, want ErrLeaseHeld", err)
	}
	// ...but not other jobs.
	if _, err := s.Acquire("j2", "b", time.Minute); err != nil {
		t.Fatalf("acquire of a different job: %v", err)
	}
	// Renewal extends expiry and keeps the token.
	nl, err := s.Renew(l1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Token != l1.Token || !nl.Expires.After(l1.Expires) {
		t.Fatalf("renewal = %+v (from %+v): want same token, later expiry", nl, l1)
	}
	// Release lets the next owner in, at a strictly higher token.
	if err := s.Release(nl); err != nil {
		t.Fatal(err)
	}
	l2, err := s.Acquire("j1", "b", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Token <= nl.Token {
		t.Fatalf("post-release token %d not above %d", l2.Token, nl.Token)
	}
	// The released lease is dead for every operation.
	if _, err := s.Renew(nl, time.Minute); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("renew of a released lease: %v, want ErrLeaseLost", err)
	}
	if err := s.Release(nl); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("double release: %v, want ErrLeaseLost", err)
	}
	leases, err := s.Leases()
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 2 || leases["j1"].Owner != "b" || leases["j2"].Owner != "b" {
		t.Fatalf("leases = %+v, want j1 and j2 held by b", leases)
	}
}

// TestDirStoreFencing pins the safety core: once a lease is stolen, the
// old owner's writes, renewals and releases are all rejected — no
// matter what its clock thinks.
func TestDirStoreFencing(t *testing.T) {
	s := newTestDirStore(t)
	rec := leaseTestRecord("j1")
	old, err := s.Acquire("j1", "a", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutLeased(rec, old); err != nil {
		t.Fatalf("fenced write under a live lease: %v", err)
	}
	// Let the lease expire without a steal: the owner may still renew
	// and write — expiry is liveness, the token is safety.
	time.Sleep(20 * time.Millisecond)
	if err := s.PutLeased(rec, old); err != nil {
		t.Fatalf("fenced write on an expired-but-unstolen lease: %v", err)
	}
	if _, err := s.Renew(old, 10*time.Millisecond); err != nil {
		t.Fatalf("renewal of an expired-but-unstolen lease: %v", err)
	}
	// Now the steal: a second owner acquires over the lapsed lease.
	time.Sleep(20 * time.Millisecond)
	stolen, err := s.Acquire("j1", "b", time.Minute)
	if err != nil {
		t.Fatalf("steal of an expired lease: %v", err)
	}
	if stolen.Token <= old.Token {
		t.Fatalf("steal token %d not above the old token %d", stolen.Token, old.Token)
	}
	// The resurrected old owner is fenced out of everything.
	if err := s.PutLeased(rec, old); !errors.Is(err, ErrStaleToken) {
		t.Fatalf("stale-token write: %v, want ErrStaleToken", err)
	}
	if _, err := s.Renew(old, time.Minute); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale renewal: %v, want ErrLeaseLost", err)
	}
	if err := s.Release(old); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale release: %v, want ErrLeaseLost", err)
	}
	// The thief's writes land; unleased Puts are blocked while it lives.
	if err := s.PutLeased(rec, stolen); err != nil {
		t.Fatalf("new owner's fenced write: %v", err)
	}
	if err := s.Put(rec); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("unleased Put over a live lease: %v, want ErrLeaseHeld", err)
	}
	// After release, plain Puts work again, but the released lease's
	// token is spent forever.
	if err := s.Release(stolen); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(rec); err != nil {
		t.Fatalf("unleased Put after release: %v", err)
	}
	if err := s.PutLeased(rec, stolen); !errors.Is(err, ErrStaleToken) {
		t.Fatalf("fenced write under a released lease: %v, want ErrStaleToken", err)
	}
}

// TestDirStoreTokenHighWaterSurvivesCompaction forces many log
// compactions and checks the monotonic-token invariant across them: a
// released job's high-water mark must never be forgotten, or a
// resurrected writer could slip a stale write past the fence.
func TestDirStoreTokenHighWaterSurvivesCompaction(t *testing.T) {
	s := newTestDirStore(t)
	s.maxLog = 4 // compact every few appends
	var last uint64
	var stale []Lease
	for i := 0; i < 40; i++ {
		l, err := s.Acquire("j1", fmt.Sprintf("r%d", i%3), time.Minute)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if l.Token <= last {
			t.Fatalf("acquire %d: token %d not above %d (high water lost in compaction)", i, l.Token, last)
		}
		last = l.Token
		stale = append(stale, l)
		if err := s.Release(l); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	rec := leaseTestRecord("j1")
	for i, l := range stale {
		if err := s.PutLeased(rec, l); !errors.Is(err, ErrStaleToken) {
			t.Fatalf("spent lease %d accepted for a fenced write: %v", i, err)
		}
	}
	// The log actually compacted (it would be 80+ lines otherwise).
	if _, lines, err := s.loadLocked(); err != nil || lines > s.maxLog+1 {
		t.Fatalf("log has %d lines (err %v), want <= %d after compaction", lines, err, s.maxLog+1)
	}
}

// TestDirStoreAcquireMutualExclusion is the lease-invariant property
// test: however many replicas race, at most one holds a valid lease on
// a job at any time, and every handoff strictly increases the token.
func TestDirStoreAcquireMutualExclusion(t *testing.T) {
	s := newTestDirStore(t)
	const replicas, rounds = 8, 15
	var lastToken uint64
	for round := 0; round < rounds; round++ {
		var (
			wg      sync.WaitGroup
			winners atomic.Int32
			mu      sync.Mutex
			winner  Lease
		)
		for r := 0; r < replicas; r++ {
			owner := fmt.Sprintf("r%d", r)
			wg.Add(1)
			go func() {
				defer wg.Done()
				l, err := s.Acquire("contended", owner, time.Minute)
				switch {
				case err == nil:
					winners.Add(1)
					mu.Lock()
					winner = l
					mu.Unlock()
				case !errors.Is(err, ErrLeaseHeld):
					t.Errorf("loser saw %v, want ErrLeaseHeld", err)
				}
			}()
		}
		wg.Wait()
		if n := winners.Load(); n != 1 {
			t.Fatalf("round %d: %d replicas acquired the same live lease", round, n)
		}
		if winner.Token <= lastToken {
			t.Fatalf("round %d: token %d not above %d", round, winner.Token, lastToken)
		}
		lastToken = winner.Token
		if err := s.Release(winner); err != nil {
			t.Fatalf("round %d release: %v", round, err)
		}
	}
}

// TestDirStoreConcurrentLeaseChurn hammers one store from many
// goroutines under -race: fenced writes only ever succeed or fail with
// ErrStaleToken, and per job every granted token is unique, the store's
// replayed high-water mark is the largest of them, and every lower token
// is fenced. Tokens are recorded as granted and checked after the churn:
// a goroutine descheduled past the 5 ms TTL returns from Acquire after the
// replica that stole from it, so the order in which goroutines observe
// their tokens is not the order the store issued them in.
func TestDirStoreConcurrentLeaseChurn(t *testing.T) {
	s := newTestDirStore(t)
	s.maxLog = 16 // keep compaction in the loop
	jobs := []string{"a", "b"}
	var grantedMu sync.Mutex
	granted := map[string][]Lease{}
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		owner := fmt.Sprintf("r%d", r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				id := jobs[i%len(jobs)]
				l, err := s.Acquire(id, owner, 5*time.Millisecond)
				if err != nil {
					if !errors.Is(err, ErrLeaseHeld) {
						t.Errorf("acquire: %v", err)
					}
					time.Sleep(time.Millisecond)
					continue
				}
				grantedMu.Lock()
				granted[id] = append(granted[id], l)
				grantedMu.Unlock()
				if err := s.PutLeased(leaseTestRecord(id), l); err != nil && !errors.Is(err, ErrStaleToken) {
					t.Errorf("fenced write: %v", err)
				}
				if i%2 == 0 {
					_ = s.Release(l) // otherwise abandon: the next acquire steals
				}
			}
		}()
	}
	wg.Wait()
	states, _, err := s.loadLocked()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range jobs {
		leases := granted[id]
		if len(leases) == 0 {
			t.Errorf("job %s: no lease granted", id)
			continue
		}
		slices.SortFunc(leases, func(a, b Lease) int { return cmp.Compare(a.Token, b.Token) })
		for k := 1; k < len(leases); k++ {
			if leases[k].Token == leases[k-1].Token {
				t.Errorf("job %s: token %d issued twice (%s and %s)", id, leases[k].Token, leases[k-1].Owner, leases[k].Owner)
			}
		}
		top := leases[len(leases)-1].Token
		if st := states[id]; st == nil || st.token != top {
			t.Errorf("job %s: replayed high-water mark %+v, want the largest granted token %d", id, st, top)
		}
		for _, l := range leases {
			if l.Token == top {
				continue
			}
			if err := s.PutLeased(leaseTestRecord(id), l); !errors.Is(err, ErrStaleToken) {
				t.Errorf("job %s: write with stale token %d: %v, want ErrStaleToken", id, l.Token, err)
			}
		}
	}
}

// TestDirStoreLockRecovery: a crashed holder's lock file (expired
// content, or unparseable garbage with an old mtime) must be broken,
// never deadlock the store.
func TestDirStoreLockRecovery(t *testing.T) {
	s := newTestDirStore(t)
	// An expired lock left by a crashed process.
	expired, _ := os.Create(s.lockPath)
	fmt.Fprintf(expired, `{"owner":"dead:1:1","expires":%d}`, time.Now().Add(-time.Minute).UnixNano())
	expired.Close()
	if _, err := s.Acquire("j1", "a", time.Minute); err != nil {
		t.Fatalf("acquire past an expired lock: %v", err)
	}
	// Garbage lock content: judged stale by mtime.
	if err := os.WriteFile(s.lockPath, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(s.lockPath, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Leases(); err != nil {
		t.Fatalf("leases past a garbage lock: %v", err)
	}
	// A live (unexpired) foreign lock makes operations wait, then fail.
	s.lockWait = 50 * time.Millisecond
	live, _ := os.Create(s.lockPath)
	fmt.Fprintf(live, `{"owner":"other:1:1","expires":%d}`, time.Now().Add(time.Minute).UnixNano())
	live.Close()
	if _, err := s.Acquire("j2", "a", time.Minute); err == nil {
		t.Fatal("acquire succeeded through a live foreign lock")
	}
	_ = os.Remove(s.lockPath)
}

// TestDirStoreDeleteDropsLeaseState: deleting a job forgets its lease
// bookkeeping so the log cannot grow monotonically with job turnover.
func TestDirStoreDeleteDropsLeaseState(t *testing.T) {
	s := newTestDirStore(t)
	l, err := s.Acquire("j1", "a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(l); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("j1"); err != nil {
		t.Fatal(err)
	}
	states, _, err := s.loadLocked()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := states["j1"]; ok {
		t.Fatal("deleted job still has lease state")
	}
	// A fresh job under the recycled id starts over at token 1.
	if l, err = s.Acquire("j1", "b", time.Minute); err != nil || l.Token != 1 {
		t.Fatalf("acquire after delete = %+v, %v; want token 1", l, err)
	}
}

func TestDirStoreReplicaRegistry(t *testing.T) {
	s := newTestDirStore(t)
	if err := s.PublishReplica(ReplicaInfo{Replica: "../evil"}); err == nil {
		t.Fatal("hostile replica id accepted")
	}
	for _, name := range []string{"b", "a"} {
		if err := s.PublishReplica(ReplicaInfo{Replica: name, Running: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PublishReplica(ReplicaInfo{Replica: "a", Running: 7}); err != nil {
		t.Fatal(err)
	}
	// A torn presence file is skipped, not fatal.
	if err := os.WriteFile(filepath.Join(s.repDir, "torn.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	reps, err := s.Replicas()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Replica != "a" || reps[0].Running != 7 || reps[1].Replica != "b" {
		t.Fatalf("replicas = %+v, want updated a then b", reps)
	}
}

// TestDirStoreRecordRoundTrip: the Store surface delegates to the
// snapshot-per-job layout and keeps the conditional-write contract.
func TestDirStoreRecordRoundTrip(t *testing.T) {
	s := newTestDirStore(t)
	rec := leaseTestRecord("j1")
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("j1")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if got.ID != "j1" || got.Kind != KindAnalyze {
		t.Fatalf("round-tripped record = %+v", got.Status)
	}
	all, err := s.List()
	if err != nil || len(all) != 1 {
		t.Fatalf("List = %d records, %v", len(all), err)
	}
	if err := s.Delete("j1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("j1"); ok {
		t.Fatal("deleted record still present")
	}
}
