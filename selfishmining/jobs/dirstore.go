package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DirStore is the zero-dependency LeaseStore over a shared directory:
// multiple server replicas (processes, containers, NFS mounts) point at
// one directory and coordinate through files alone. Layout:
//
//	<dir>/jobs/<id>.json   one atomic JSON snapshot per job (a DiskStore)
//	<dir>/leases.log       append-only JSON-lines lease log, compacted
//	<dir>/lock             short-lived mutual-exclusion lock file
//	<dir>/replicas/<r>.json  per-replica presence records
//
// Crash safety rests on three primitives only: O_EXCL-equivalent lock
// creation via hard links (exactly one winner), atomic temp-file +
// rename for every snapshot and for log compaction (readers never see a
// torn file), and an append-only lease log whose replay reconstructs
// the token high-water mark per job — preserved across release and
// compaction, so a writer that slept through a steal is fenced no
// matter how late it wakes. The lock file itself carries an expiry:
// a crashed holder's lock is broken by an atomic rename, which at most
// one breaker wins.
type DirStore struct {
	dir      string
	recs     *DiskStore
	lockPath string
	logPath  string
	repDir   string

	// self is this process's unique lock-owner token; staleSeq
	// uniquifies stale-lock rename targets.
	self     string
	staleSeq atomic.Uint64

	// mu serializes this process's lease-log critical sections (the
	// lock file serializes across processes).
	mu sync.Mutex

	// lockTTL is how long a held dir lock is honored before other
	// processes may break it as crashed; lockWait bounds how long an
	// operation spins for the lock.
	lockTTL  time.Duration
	lockWait time.Duration
	// maxLog is the lease-log line count that triggers compaction.
	maxLog int
}

const (
	dirLockTTL  = 5 * time.Second
	dirLockWait = 15 * time.Second
	dirMaxLog   = 4096
)

// NewDirStore opens (creating if needed) the shared directory.
func NewDirStore(dir string) (*DirStore, error) {
	recs, err := NewDiskStore(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, err
	}
	repDir := filepath.Join(dir, "replicas")
	if err := os.MkdirAll(repDir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: dir store: %w", err)
	}
	host, _ := os.Hostname()
	return &DirStore{
		dir:      dir,
		recs:     recs,
		lockPath: filepath.Join(dir, "lock"),
		logPath:  filepath.Join(dir, "leases.log"),
		repDir:   repDir,
		self:     fmt.Sprintf("%s:%d:%d", host, os.Getpid(), time.Now().UnixNano()),
		lockTTL:  dirLockTTL,
		lockWait: dirLockWait,
		maxLog:   dirMaxLog,
	}, nil
}

// Dir returns the shared directory.
func (s *DirStore) Dir() string { return s.dir }

// CorruptFiles counts job snapshots quarantined because they failed to
// parse (since this store was opened).
func (s *DirStore) CorruptFiles() uint64 { return s.recs.CorruptFiles() }

// Healthy reports whether the shared directory layout is still reachable:
// the job-snapshot directory and the replica registry must both exist.
// Implements HealthChecker for Manager.Ready.
func (s *DirStore) Healthy() error {
	if err := s.recs.Healthy(); err != nil {
		return err
	}
	if _, err := os.Stat(s.repDir); err != nil {
		return fmt.Errorf("jobs: dir store: %w", err)
	}
	return nil
}

// --- directory lock ------------------------------------------------------

// dirLock is the lock file's content: who holds it and until when other
// processes must honor it.
type dirLock struct {
	Owner   string `json:"owner"`
	Expires int64  `json:"expires"` // unix nanoseconds
}

// lock takes the cross-process directory lock, returning the unlock
// func. Lock creation is an atomic hard link (EEXIST = held). A lock
// whose expiry has passed — its holder crashed mid-operation — is
// broken by renaming it aside, which exactly one breaker wins.
func (s *DirStore) lock() (func(), error) {
	content, err := json.Marshal(dirLock{Owner: s.self, Expires: time.Now().Add(s.lockTTL).UnixNano()})
	if err != nil {
		return nil, fmt.Errorf("jobs: dir store: %w", err)
	}
	deadline := time.Now().Add(s.lockWait)
	for {
		tmp, err := writeTemp(s.lockPath, content)
		if err != nil {
			return nil, fmt.Errorf("jobs: dir store: lock: %w", err)
		}
		linkErr := os.Link(tmp, s.lockPath)
		_ = os.Remove(tmp)
		if linkErr == nil {
			return s.unlock, nil
		}
		if !errors.Is(linkErr, fs.ErrExist) {
			return nil, fmt.Errorf("jobs: dir store: lock: %w", linkErr)
		}
		s.breakIfStale()
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("jobs: dir store: lock on %s held past %v", s.dir, s.lockWait)
		}
		time.Sleep(time.Millisecond)
	}
}

// breakIfStale renames an expired lock aside. The rename is atomic, so
// when several processes judge the same lock stale, exactly one wins
// the break; the others' renames fail and they simply retry.
func (s *DirStore) breakIfStale() {
	data, err := os.ReadFile(s.lockPath)
	if err != nil {
		return // vanished (released) — retry the acquire
	}
	var lk dirLock
	stale := false
	if json.Unmarshal(data, &lk) == nil && lk.Expires > 0 {
		stale = time.Now().UnixNano() > lk.Expires
	} else if fi, err := os.Stat(s.lockPath); err == nil {
		// Torn/garbage lock content: judge by file age.
		stale = time.Since(fi.ModTime()) > s.lockTTL
	}
	if !stale {
		return
	}
	aside := fmt.Sprintf("%s.stale-%s-%d", s.lockPath, filepath.Base(s.self), s.staleSeq.Add(1))
	if os.Rename(s.lockPath, aside) == nil {
		_ = os.Remove(aside)
	}
}

// unlock releases the directory lock — but only if it is still ours.
// (If we overheld past lockTTL and another process broke our lock, the
// file now belongs to someone else and must not be removed.)
func (s *DirStore) unlock() {
	data, err := os.ReadFile(s.lockPath)
	if err != nil {
		return
	}
	var lk dirLock
	if json.Unmarshal(data, &lk) == nil && lk.Owner == s.self {
		_ = os.Remove(s.lockPath)
	}
}

// --- lease log -----------------------------------------------------------

// leaseLogEntry is one line of leases.log.
//
//	acquire: owner claims job at token (steals bump past the high water)
//	renew:   extend expiry; owner+token must match the live lease
//	release: end the live lease; the token high-water mark survives
//	token:   compaction artifact: a released job's high-water mark
//	drop:    the job was deleted; forget its lease state entirely
type leaseLogEntry struct {
	Op      string `json:"op"`
	Job     string `json:"job"`
	Owner   string `json:"owner,omitempty"`
	Token   uint64 `json:"token,omitempty"`
	Expires int64  `json:"expires,omitempty"` // unix nanoseconds
}

// leaseState is one job's replayed lease state: the token high-water
// mark plus the live lease, if any.
type leaseState struct {
	token   uint64 // highest token ever issued for the job
	live    bool
	owner   string
	expires time.Time
}

// holds reports whether owner's lease at token is the job's live lease
// (false for a job with no lease state).
func (st *leaseState) holds(owner string, token uint64) bool {
	return st != nil && st.live && st.owner == owner && st.token == token
}

// loadLocked replays leases.log. Unparseable lines (a torn final append
// after a crash) are skipped — every complete line before them already
// replayed. Callers hold the directory lock.
func (s *DirStore) loadLocked() (map[string]*leaseState, int, error) {
	states := make(map[string]*leaseState)
	f, err := os.Open(s.logPath)
	if errors.Is(err, fs.ErrNotExist) {
		return states, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("jobs: dir store: %w", err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		lines++
		var e leaseLogEntry
		if json.Unmarshal(sc.Bytes(), &e) != nil || e.Job == "" {
			continue
		}
		st := states[e.Job]
		if st == nil && e.Op != "drop" {
			st = &leaseState{}
			states[e.Job] = st
		}
		switch e.Op {
		case "acquire":
			if e.Token > st.token {
				st.token = e.Token
			}
			st.live = true
			st.owner = e.Owner
			st.expires = time.Unix(0, e.Expires)
		case "renew":
			if st.holds(e.Owner, e.Token) {
				st.expires = time.Unix(0, e.Expires)
			}
		case "release":
			if st.holds(e.Owner, e.Token) {
				st.live = false
			}
		case "token":
			if e.Token > st.token {
				st.token = e.Token
			}
		case "drop":
			delete(states, e.Job)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("jobs: dir store: lease log: %w", err)
	}
	return states, lines, nil
}

// appendLocked appends one entry, compacting the log first when it has
// grown past maxLog lines. Callers hold the directory lock and pass the
// states map and line count from loadLocked — with the new entry NOT
// yet applied to states.
func (s *DirStore) appendLocked(states map[string]*leaseState, lines int, e leaseLogEntry) error {
	if lines >= s.maxLog {
		if err := s.compactLocked(states); err != nil {
			return err
		}
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("jobs: dir store: %w", err)
	}
	f, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: dir store: %w", err)
	}
	_, werr := f.Write(append(data, '\n'))
	cerr := f.Close()
	if werr != nil || cerr != nil {
		return fmt.Errorf("jobs: dir store: lease log: %w", errors.Join(werr, cerr))
	}
	return nil
}

// compactLocked rewrites the log as one entry per job: a live lease
// becomes its acquire line, a released job keeps a bare token line so
// its high-water mark — the fence against resurrected writers — is
// never forgotten. Atomic via temp + rename.
func (s *DirStore) compactLocked(states map[string]*leaseState) error {
	ids := make([]string, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var buf bytes.Buffer
	for _, id := range ids {
		st := states[id]
		var e leaseLogEntry
		switch {
		case st.live:
			e = leaseLogEntry{Op: "acquire", Job: id, Owner: st.owner, Token: st.token, Expires: st.expires.UnixNano()}
		case st.token > 0:
			e = leaseLogEntry{Op: "token", Job: id, Token: st.token}
		default:
			continue
		}
		data, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("jobs: dir store: %w", err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	if err := writeAtomic(s.logPath, buf.Bytes()); err != nil {
		return fmt.Errorf("jobs: dir store: compact: %w", err)
	}
	return nil
}

// --- LeaseStore ----------------------------------------------------------

// logged is every lease-log operation: with this process's mutex and the
// directory lock held, it replays the log, runs op on the replayed
// states, and appends the entry op returns (none when it returns nil).
// An error from op aborts before anything is appended.
func (s *DirStore) logged(op func(states map[string]*leaseState) (*leaseLogEntry, error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	unlock, err := s.lock()
	if err != nil {
		return err
	}
	defer unlock()
	states, lines, err := s.loadLocked()
	if err != nil {
		return err
	}
	e, err := op(states)
	if e == nil || err != nil {
		return err
	}
	return s.appendLocked(states, lines, *e)
}

func (s *DirStore) Acquire(id, owner string, ttl time.Duration) (Lease, error) {
	if id == "" || owner == "" || ttl <= 0 {
		return Lease{}, fmt.Errorf("jobs: dir store: acquire needs id, owner and ttl > 0 (got %q, %q, %v)", id, owner, ttl)
	}
	var l Lease
	err := s.logged(func(states map[string]*leaseState) (*leaseLogEntry, error) {
		now := time.Now()
		st := states[id]
		if st != nil && st.live && st.owner != owner && now.Before(st.expires) {
			return nil, fmt.Errorf("%w: job %s leased by %s until %s",
				ErrLeaseHeld, id, st.owner, st.expires.Format(time.RFC3339Nano))
		}
		l = Lease{JobID: id, Owner: owner, Token: 1, Expires: now.Add(ttl)}
		if st != nil {
			l.Token = st.token + 1
		}
		return &leaseLogEntry{Op: "acquire", Job: id, Owner: owner, Token: l.Token, Expires: l.Expires.UnixNano()}, nil
	})
	if err != nil {
		return Lease{}, err
	}
	return l, nil
}

// errLeaseLost reports a Renew or Release of a lease that is no longer live.
func errLeaseLost(l Lease) error {
	return fmt.Errorf("%w: job %s token %d (owner %s)", ErrLeaseLost, l.JobID, l.Token, l.Owner)
}

func (s *DirStore) Renew(l Lease, ttl time.Duration) (Lease, error) {
	if ttl <= 0 {
		return Lease{}, fmt.Errorf("jobs: dir store: renew needs ttl > 0, got %v", ttl)
	}
	err := s.logged(func(states map[string]*leaseState) (*leaseLogEntry, error) {
		if !states[l.JobID].holds(l.Owner, l.Token) {
			return nil, errLeaseLost(l)
		}
		l.Expires = time.Now().Add(ttl)
		return &leaseLogEntry{Op: "renew", Job: l.JobID, Owner: l.Owner, Token: l.Token, Expires: l.Expires.UnixNano()}, nil
	})
	if err != nil {
		return Lease{}, err
	}
	return l, nil
}

func (s *DirStore) Release(l Lease) error {
	return s.logged(func(states map[string]*leaseState) (*leaseLogEntry, error) {
		if !states[l.JobID].holds(l.Owner, l.Token) {
			return nil, errLeaseLost(l)
		}
		return &leaseLogEntry{Op: "release", Job: l.JobID, Owner: l.Owner, Token: l.Token}, nil
	})
}

func (s *DirStore) PutLeased(rec *Record, l Lease) error {
	return s.logged(func(states map[string]*leaseState) (*leaseLogEntry, error) {
		if st := states[rec.ID]; !st.holds(l.Owner, l.Token) {
			have := uint64(0)
			if st != nil {
				have = st.token
			}
			return nil, fmt.Errorf("%w: job %s write fenced (presented token %d, store high water %d)",
				ErrStaleToken, rec.ID, l.Token, have)
		}
		// The record write happens under the directory lock: once a steal
		// bumps the token, no straggler PutLeased can land afterwards, so a
		// post-acquire Get always reads the final fenced snapshot.
		return nil, s.recs.Put(rec)
	})
}

func (s *DirStore) Leases() (map[string]Lease, error) {
	out := make(map[string]Lease)
	err := s.logged(func(states map[string]*leaseState) (*leaseLogEntry, error) {
		for id, st := range states {
			if st.live {
				out[id] = Lease{JobID: id, Owner: st.owner, Token: st.token, Expires: st.expires}
			}
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- Store ---------------------------------------------------------------

// Put is the unleased conditional write: rejected while another
// replica's unexpired lease is live (its fenced writes must not be
// clobbered by a stale snapshot). Submit, Resume and the cancel of a
// queued job write through here.
func (s *DirStore) Put(rec *Record) error {
	return s.logged(func(states map[string]*leaseState) (*leaseLogEntry, error) {
		if st := states[rec.ID]; st != nil && st.live && time.Now().Before(st.expires) {
			return nil, fmt.Errorf("%w: job %s leased by %s", ErrLeaseHeld, rec.ID, st.owner)
		}
		return nil, s.recs.Put(rec)
	})
}

func (s *DirStore) Get(id string) (*Record, bool, error) { return s.recs.Get(id) }

func (s *DirStore) List() ([]*Record, error) { return s.recs.List() }

// Delete removes the record and forgets the job's lease state (the
// token fence is only needed while the job exists). The record goes
// first: should the drop entry fail to append, the fence outlives the
// record rather than the other way round.
func (s *DirStore) Delete(id string) error {
	return s.logged(func(states map[string]*leaseState) (*leaseLogEntry, error) {
		if err := s.recs.Delete(id); err != nil {
			return nil, err
		}
		if _, ok := states[id]; !ok {
			return nil, nil
		}
		return &leaseLogEntry{Op: "drop", Job: id}, nil
	})
}

// --- replica registry ----------------------------------------------------

func (s *DirStore) PublishReplica(info ReplicaInfo) error {
	if info.Replica == "" || strings.ContainsAny(info.Replica, `/\`) || strings.Contains(info.Replica, "..") {
		return fmt.Errorf("jobs: dir store: invalid replica id %q", info.Replica)
	}
	data, err := json.Marshal(info)
	if err != nil {
		return fmt.Errorf("jobs: dir store: %w", err)
	}
	if err := writeAtomic(filepath.Join(s.repDir, info.Replica+".json"), data); err != nil {
		return fmt.Errorf("jobs: dir store: replica %s: %w", info.Replica, err)
	}
	return nil
}

func (s *DirStore) Replicas() ([]ReplicaInfo, error) {
	entries, err := os.ReadDir(s.repDir)
	if err != nil {
		return nil, fmt.Errorf("jobs: dir store: %w", err)
	}
	var out []ReplicaInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.repDir, name))
		if err != nil {
			continue
		}
		var info ReplicaInfo
		if json.Unmarshal(data, &info) != nil || info.Replica == "" {
			continue // torn or garbage presence file — presence is advisory
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Replica < out[j].Replica })
	return out, nil
}
