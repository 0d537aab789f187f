package jobs

import (
	"container/heap"
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/selfishmining"
	"repro/selfishmining/obs"
)

// Defaults for Config's zero values.
const (
	DefaultWorkers     = 2
	DefaultQueueLimit  = 1024
	DefaultTTL         = time.Hour
	DefaultMaxFinished = 4096
	DefaultEventBuffer = 256
	// DefaultLeaseTTL and DefaultPollInterval tune multi-replica mode
	// (Config.ReplicaID over a LeaseStore); the heartbeat defaults to a
	// third of the lease TTL.
	DefaultLeaseTTL     = 15 * time.Second
	DefaultPollInterval = 2 * time.Second
)

// Config tunes a Manager. The zero value gives serving defaults; see each
// field for the negative-value escape hatches.
type Config struct {
	// Store persists job records (nil = a fresh in-memory MemStore). A
	// DiskStore makes jobs survive process restarts.
	Store Store
	// Workers bounds the jobs executing at once (default 2). The
	// underlying Service's MaxConcurrent additionally bounds total solves
	// across jobs and synchronous requests.
	Workers int
	// QueueLimit bounds jobs waiting in the queue; Submit fails with
	// ErrQueueFull beyond it (default 1024).
	QueueLimit int
	// TTL is how long finished (done/failed/canceled) jobs are retained
	// before eviction (default 1h; negative disables eviction).
	TTL time.Duration
	// MaxFinished caps retained finished jobs regardless of TTL, evicting
	// oldest-finished first (default 4096; negative removes the cap).
	MaxFinished int
	// EventBuffer is the per-job event-log ring size for SSE replay
	// (default 256). Reconnects older than the ring receive a fresh status
	// snapshot first.
	EventBuffer int
	// Gates installs deterministic lifecycle hooks for tests (nil in
	// production). See Gates.
	Gates *Gates
	// Logger receives structured lifecycle logs (submit, start, finish,
	// steal, resume) with job_id/request_id attributes (nil = discard).
	Logger *slog.Logger

	// ReplicaID names this manager among the replicas sharing a
	// LeaseStore, enabling multi-replica mode: workers lease jobs
	// before running them (fenced writes, heartbeat renewal), a poller
	// mirrors the shared store and steals expired leases, and the
	// replica publishes presence records for /v1/stats. Required when
	// Store implements LeaseStore; ignored otherwise.
	ReplicaID string
	// LeaseTTL is how long a job lease lives without renewal before
	// other replicas may steal it (default 15s). Safety never depends
	// on it — fencing tokens do — only failover latency.
	LeaseTTL time.Duration
	// Heartbeat is the lease-renewal (and presence-publish) period
	// (default LeaseTTL/3). It must be shorter than LeaseTTL.
	Heartbeat time.Duration
	// PollInterval is how often the replica re-reads the shared store
	// for jobs submitted, advanced, or abandoned elsewhere (default 2s).
	PollInterval time.Duration
}

// Gates are deterministic lifecycle hooks that let tests pin a job at an
// exact execution point — for example, block inside Progress until a
// Cancel has landed, making cancel-while-running tests race-free. Each
// hook runs on the solving goroutine with no manager locks held, so a
// hook may block indefinitely (the job stays StateRunning) and may call
// back into the Manager. Install via Config.Gates before New; the hooks
// must not be changed afterwards.
type Gates struct {
	// Run fires at the start of every job body.
	Run func(id string)
	// Progress fires after every analyze binary-search progress update.
	Progress func(id string, iteration int)
	// Point fires after every completed sweep grid point.
	Point func(id string, pointsDone int)
}

func (c *Config) defaults() {
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	if c.Workers == 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = DefaultQueueLimit
	}
	if c.TTL == 0 {
		c.TTL = DefaultTTL
	}
	if c.MaxFinished == 0 {
		c.MaxFinished = DefaultMaxFinished
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = DefaultEventBuffer
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.LeaseTTL / 3
	}
	if c.PollInterval <= 0 {
		c.PollInterval = DefaultPollInterval
	}
	if c.Logger == nil {
		c.Logger = obs.Discard()
	}
}

// Sentinel errors of the job API.
var (
	// ErrNotFound: no job with that id (possibly evicted).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrQueueFull: the queue is at Config.QueueLimit.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrClosed: the manager has shut down.
	ErrClosed = errors.New("jobs: manager is closed")
	// ErrNotResumable: Resume on a job that is not canceled or failed.
	ErrNotResumable = errors.New("jobs: job is not resumable")
	// ErrFinished: Cancel on a job that already reached a terminal state.
	ErrFinished = errors.New("jobs: job already finished")
	// ErrRemote: Cancel on a job currently leased by another replica
	// (multi-replica mode); cancel it on its owning replica.
	ErrRemote = errors.New("jobs: job is running on another replica")
)

// job is the manager-internal record. Immutable identity fields are set
// at construction; everything mutable is guarded by the manager's mutex.
type job struct {
	id        string
	kind      Kind
	priority  int
	seq       int64 // submit order; FIFO tiebreak within a priority
	requestID string
	analyze   *AnalyzeSpec
	sweep     *SweepSpec

	state       State
	submitted   time.Time
	started     *time.Time
	finished    *time.Time
	progress    Progress
	result      *AnalyzeResult
	sweepResult *SweepResult
	errMsg      string
	errCode     string
	interrupted bool
	resumes     int

	checkpoint      *selfishmining.Checkpoint
	sweepCK         []SweepPoint       // completed sweep points, in completion order
	cancel          context.CancelFunc // non-nil while running
	cancelRequested bool

	// Multi-replica state (all zero outside shared-LeaseStore mode).
	// lease is held from a worker's successful Acquire until finish;
	// while it is non-nil (or claiming is set) the poller leaves the
	// job alone — this replica's view is authoritative. leaseLost marks
	// a lease stolen or renewal-failed mid-run: the job body is being
	// canceled and nothing more may be persisted under the old token.
	lease     *Lease
	claiming  bool
	leaseLost bool
	// remoteOwner/remoteToken/remoteExpires mirror another replica's
	// lease for status display while the job runs elsewhere.
	remoteOwner   string
	remoteToken   uint64
	remoteExpires time.Time

	events   []Event
	firstSeq int64
	nextSeq  int64
	eventCh  chan struct{} // closed and replaced on every append
	heapIdx  int           // position in the queue heap (-1 when not queued)

	// persistMu orders store writes of this job without the manager-wide
	// mutex: snapshots are taken under m.mu (persistSeq stamps them), but
	// the O(states) checkpoint encoding and the disk write run under
	// persistMu only, and a snapshot older than what already landed
	// (persisted) is skipped.
	persistMu  sync.Mutex
	persistSeq int64 // under m.mu
	persisted  int64 // under persistMu
}

// logAttrs builds a job's standard log attributes — identity fields only,
// all immutable after construction, so callers need no lock — followed by
// any extra key/value pairs.
func (j *job) logAttrs(extra ...any) []any {
	attrs := []any{"job_id", j.id, "kind", string(j.kind)}
	if j.requestID != "" {
		attrs = append(attrs, "request_id", j.requestID)
	}
	return append(attrs, extra...)
}

// jobQueue is a priority queue: higher Priority first, submit order
// within a priority.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].heapIdx, q[j].heapIdx = i, j
}
func (q *jobQueue) Push(x any) {
	j := x.(*job)
	j.heapIdx = len(*q)
	*q = append(*q, j)
}
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIdx = -1
	*q = old[:n-1]
	return j
}

// Manager runs jobs over a selfishmining.Service: a worker pool fed from
// the priority queue, durable records in a Store, per-job event logs for
// SSE, TTL retention, and checkpoint-resume for analyze jobs (see the
// package documentation). All methods are safe for concurrent use.
type Manager struct {
	svc *selfishmining.Service
	cfg Config
	log *slog.Logger

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   map[string]*job
	queue  jobQueue
	closed bool

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup
	seq       int64 // submit-order tiebreak, spans recovered and new jobs

	// ls is non-nil in multi-replica mode (Config.Store implements
	// LeaseStore); replicaStart timestamps this replica's presence;
	// lastBeat is the unix-nano timestamp of the last completed heartbeat
	// pass, read lock-free by Ready.
	ls           LeaseStore
	replicaStart time.Time
	lastBeat     atomic.Int64

	// Process-lifetime counters (guarded by mu; snapshot via Stats).
	submitted, started, completed, failed uint64
	canceled, resumed, evicted            uint64
	interruptedCount                      uint64
	// Lease-protocol counters (multi-replica mode).
	leasesAcquired, leasesRenewed, leasesReleased uint64
	leasesStolen, leasesLost, staleWrites         uint64

	// Test-only gates (installed via Config.Gates, or set directly by
	// in-package tests), set before any Submit and never changed: runGate
	// runs at the start of every job body, progressGate after every
	// analyze progress update, pointGate after every sweep point. All run
	// on the solving goroutine with no locks held, letting tests pin a
	// job at an exact lifecycle point.
	runGate      func(id string)
	progressGate func(id string, iteration int)
	pointGate    func(id string, pointsDone int)
}

// New builds a Manager over svc and recovers the store's records: finished
// jobs are re-indexed (visible to Get/List/Resume), queued jobs re-enter
// the queue, and jobs that were running when the previous process stopped
// are re-queued as interrupted — resuming from their persisted checkpoint
// if one was written (graceful shutdowns write one; crashes may not).
// Event logs are process-local, so recovered jobs start a fresh event
// sequence (SSE reconnects receive a status snapshot first).
func New(svc *selfishmining.Service, cfg Config) (*Manager, error) {
	if svc == nil {
		return nil, fmt.Errorf("jobs: New needs a selfishmining.Service")
	}
	cfg.defaults()
	ls, _ := cfg.Store.(LeaseStore)
	if ls != nil {
		if cfg.ReplicaID == "" {
			return nil, fmt.Errorf("jobs: a shared LeaseStore needs Config.ReplicaID")
		}
		if cfg.Heartbeat >= cfg.LeaseTTL {
			return nil, fmt.Errorf("jobs: heartbeat %v must be shorter than the lease TTL %v", cfg.Heartbeat, cfg.LeaseTTL)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		svc:          svc,
		cfg:          cfg,
		log:          cfg.Logger,
		ls:           ls,
		replicaStart: time.Now(),
		jobs:         make(map[string]*job),
		baseCtx:      ctx,
		cancelAll:    cancel,
	}
	if g := cfg.Gates; g != nil {
		m.runGate, m.progressGate, m.pointGate = g.Run, g.Progress, g.Point
	}
	m.cond = sync.NewCond(&m.mu)
	if err := m.recover(); err != nil {
		cancel()
		return nil, err
	}
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.janitor()
	if m.ls != nil {
		m.lastBeat.Store(time.Now().UnixNano())
		m.publishReplica()
		m.wg.Add(2)
		go m.heartbeat()
		go m.poll()
	}
	return m, nil
}

// Readiness errors: Ready wraps these with detail; match with errors.Is
// to tell a failing store apart from a stalled lease heartbeat.
var (
	// ErrStoreUnhealthy: the job store failed its health check.
	ErrStoreUnhealthy = errors.New("jobs: store unhealthy")
	// ErrHeartbeatStale: the lease heartbeat has not completed a pass
	// recently (multi-replica mode); leases held here may be stolen.
	ErrHeartbeatStale = errors.New("jobs: lease heartbeat stale")
)

// Ready reports whether the manager can accept and run jobs right now:
// not closed, the store passes its health check (when it has one), and —
// in multi-replica mode — the lease heartbeat has completed a pass within
// three periods. A nil error means ready; the error otherwise wraps
// ErrClosed, ErrStoreUnhealthy, or ErrHeartbeatStale so readiness
// endpoints can name the failing dependency.
func (m *Manager) Ready() error {
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if hc, ok := m.cfg.Store.(HealthChecker); ok {
		if err := hc.Healthy(); err != nil {
			return fmt.Errorf("%w: %v", ErrStoreUnhealthy, err)
		}
	}
	if m.ls != nil {
		stale := time.Since(time.Unix(0, m.lastBeat.Load()))
		if stale > 3*m.cfg.Heartbeat {
			return fmt.Errorf("%w: last pass %v ago (period %v)",
				ErrHeartbeatStale, stale.Round(time.Millisecond), m.cfg.Heartbeat)
		}
	}
	return nil
}

// recover loads every stored record into the live index. In
// multi-replica mode, records running under another replica's live
// lease stay remote (the poller watches them); records whose lease
// lapsed — or that our own previous process held before crashing — are
// re-queued as interrupted steal candidates.
func (m *Manager) recover() error {
	recs, err := m.cfg.Store.List()
	if err != nil {
		return fmt.Errorf("jobs: recovering store: %w", err)
	}
	var leases map[string]Lease
	if m.ls != nil {
		if leases, err = m.ls.Leases(); err != nil {
			return fmt.Errorf("jobs: recovering leases: %w", err)
		}
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].SubmittedAt.Before(recs[k].SubmittedAt) })
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range recs {
		j := m.indexRecordLocked(rec)
		if j.state == StateRunning {
			if l, ok := leases[j.id]; ok && l.Owner != m.cfg.ReplicaID && !l.Expired(now) {
				// Running on a live replica right now: index read-only.
				j.remoteOwner, j.remoteToken, j.remoteExpires = l.Owner, l.Token, l.Expires
			} else {
				// The owning process died mid-run (single-replica mode, our
				// own pre-crash lease, or an expired foreign lease); whatever
				// checkpoint made it to the store is the resume point.
				if l, ok := leases[j.id]; ok && l.Owner != m.cfg.ReplicaID {
					m.leasesStolen++
				}
				j.state = StateQueued
				j.interrupted = true
				j.started = nil
			}
		}
		if j.state == StateQueued && j.interrupted {
			// Re-queued across a restart — by the crash path above or by a
			// previous graceful shutdown — lands in this process's counter.
			m.interruptedCount++
		}
		if j.state == StateQueued {
			heap.Push(&m.queue, j)
		}
		// Every live job carries at least one event (the event ring is
		// process-local), so event streams have a well-defined replay start.
		m.emitStatusLocked(j)
		if m.ls == nil {
			// Startup runs single-threaded; writing inline under the lock is
			// harmless here. Replicas sharing a store skip the re-persist:
			// their copy is not authoritative (the crash-conversion above is
			// a local decision until a worker's Acquire makes it real).
			m.persistFnLocked(j)()
		}
	}
	return nil
}

// indexRecordLocked builds the in-memory job for a stored record and
// adds it to the live index; queue membership and lease display are the
// caller's decisions.
func (m *Manager) indexRecordLocked(rec *Record) *job {
	ck, err := rec.Checkpoint.decode()
	if err != nil {
		// A checkpoint that fails to decode costs the warm resume, not
		// the job: it re-runs cold with the identical result.
		ck = nil
	}
	m.seq++
	j := &job{
		id: rec.ID, kind: rec.Kind, priority: rec.Priority, seq: m.seq,
		requestID: rec.RequestID,
		analyze:   rec.Analyze, sweep: rec.Sweep,
		state: rec.State, submitted: rec.SubmittedAt,
		started: rec.StartedAt, finished: rec.FinishedAt,
		progress: rec.Progress,
		result:   rec.Result, sweepResult: rec.SweepResult,
		errMsg: rec.Error, errCode: rec.ErrorCode,
		interrupted: rec.Interrupted, resumes: rec.Resumes,
		checkpoint: ck,
		// Copy: the job appends to sweepCK as it runs, and stored
		// records must stay immutable.
		sweepCK: append([]SweepPoint(nil), rec.SweepCheckpoint...),
		eventCh: make(chan struct{}),
		heapIdx: -1,
		// Event numbering continues where the previous process left
		// off, so pre-restart Last-Event-ID cursors never alias into
		// this process's events — they fall before the (empty) ring and
		// are made whole with a status snapshot.
		firstSeq: rec.EventSeq,
		nextSeq:  rec.EventSeq,
	}
	m.jobs[j.id] = j
	return j
}

// newID generates a collision-resistant job id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random id bytes: %v", err))
	}
	return "j" + hex.EncodeToString(b[:])
}

// Submit validates the request, enqueues the job and returns its initial
// snapshot. Sweep specs are normalized first (defaults filled, every grid
// point validated), so the returned spec says exactly what will run.
func (m *Manager) Submit(req Request) (*Status, error) {
	j := &job{
		id: newID(), priority: req.Priority, requestID: req.RequestID,
		state: StateQueued, submitted: time.Now(),
		eventCh: make(chan struct{}), heapIdx: -1,
	}
	switch req.Kind {
	case KindAnalyze:
		if req.Analyze == nil || req.Sweep != nil {
			return nil, fmt.Errorf("jobs: kind %q needs exactly the analyze spec", req.Kind)
		}
		spec := *req.Analyze
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		j.kind, j.analyze = KindAnalyze, &spec
		j.progress = Progress{BetaLow: 0, BetaUp: 1}
	case KindSweep:
		if req.Sweep == nil || req.Analyze != nil {
			return nil, fmt.Errorf("jobs: kind %q needs exactly the sweep spec", req.Kind)
		}
		spec := *req.Sweep
		if err := spec.Normalize(); err != nil {
			return nil, err
		}
		j.kind, j.sweep = KindSweep, &spec
		j.progress = Progress{PointsTotal: spec.points()}
	default:
		return nil, fmt.Errorf("jobs: unknown job kind %q (want %q or %q)", req.Kind, KindAnalyze, KindSweep)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if len(m.queue) >= m.cfg.QueueLimit {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	evicted := m.evictLocked(time.Now()) // opportunistic retention pass
	m.seq++
	j.seq = m.seq
	m.submitted++
	m.jobs[j.id] = j
	heap.Push(&m.queue, j)
	m.emitStatusLocked(j)
	persist := m.persistFnLocked(j)
	st := m.statusLocked(j)
	m.cond.Signal()
	m.mu.Unlock()
	for _, id := range evicted {
		_ = m.cfg.Store.Delete(id)
	}
	m.log.Info("job submitted", j.logAttrs("priority", j.priority)...)
	persist()
	return st, nil
}

// Get returns a job's current snapshot.
func (m *Manager) Get(id string) (*Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return m.statusLocked(j), nil
}

// Filter narrows List and Page.
type Filter struct {
	// State / Kind keep only matching jobs when non-empty.
	State State
	Kind  Kind
	// Limit caps the snapshots Page returns (0 = no cap).
	Limit int
	// Cursor resumes a paged listing where the previous page's
	// NextCursor left off ("" = from the start). Cursors are opaque;
	// Page rejects ones it did not issue with ErrBadCursor.
	Cursor string
}

// ErrBadCursor: Page was handed a cursor it did not issue.
var ErrBadCursor = errors.New("jobs: malformed list cursor")

// List returns snapshots of every retained job (newest submission first),
// optionally filtered. Filter's pagination fields are ignored — use Page.
func (m *Manager) List(f Filter) []*Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.listLocked(f)
}

// Page returns one page of the filtered listing plus the cursor for the
// next page ("" when this page reaches the end). The ordering is the
// stable List ordering — newest submission first, ID as tiebreak — and
// cursors key on (submitted_at, id), so a page boundary survives jobs
// being submitted or evicted between calls.
func (m *Manager) Page(f Filter) ([]*Status, string, error) {
	after, ok := decodeCursor(f.Cursor)
	if !ok {
		return nil, "", fmt.Errorf("%w: %q", ErrBadCursor, f.Cursor)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	all := m.listLocked(f)
	start := 0
	if f.Cursor != "" {
		// The first item strictly after the cursor position in the
		// (SubmittedAt desc, ID desc) ordering.
		for start < len(all) {
			st := all[start]
			if st.SubmittedAt.Before(after.submitted) ||
				(st.SubmittedAt.Equal(after.submitted) && st.ID < after.id) {
				break
			}
			start++
		}
	}
	all = all[start:]
	next := ""
	if f.Limit > 0 && len(all) > f.Limit {
		all = all[:f.Limit]
		last := all[len(all)-1]
		next = encodeCursor(cursorPos{submitted: last.SubmittedAt, id: last.ID})
	}
	return all, next, nil
}

// listLocked builds the sorted, filtered listing.
func (m *Manager) listLocked(f Filter) []*Status {
	out := make([]*Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		if f.State != "" && j.state != f.State {
			continue
		}
		if f.Kind != "" && j.kind != f.Kind {
			continue
		}
		out = append(out, m.statusLocked(j))
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].SubmittedAt.Equal(out[k].SubmittedAt) {
			return out[i].SubmittedAt.After(out[k].SubmittedAt)
		}
		return out[i].ID > out[k].ID
	})
	return out
}

// cursorPos is a page boundary: the last returned item's position in
// the stable listing order.
type cursorPos struct {
	submitted time.Time
	id        string
}

// encodeCursor packs the position into an opaque URL-safe token.
func encodeCursor(p cursorPos) string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(fmt.Sprintf("%d|%s", p.submitted.UnixNano(), p.id)))
}

// decodeCursor unpacks a cursor ("" decodes to the zero position).
func decodeCursor(s string) (cursorPos, bool) {
	if s == "" {
		return cursorPos{}, true
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return cursorPos{}, false
	}
	nanos, id, ok := strings.Cut(string(raw), "|")
	if !ok || id == "" {
		return cursorPos{}, false
	}
	n, err := strconv.ParseInt(nanos, 10, 64)
	if err != nil {
		return cursorPos{}, false
	}
	return cursorPos{submitted: time.Unix(0, n), id: id}, true
}

// Cancel stops a job: a queued job is canceled immediately; a running job
// has its context canceled and transitions once the solve observes it at
// the next deterministic checkpoint (its latest binary-search checkpoint
// is persisted for Resume). Cancel of an already-canceled job is
// idempotent; other terminal states return ErrFinished.
func (m *Manager) Cancel(id string) (*Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	persist := func() {}
	switch j.state {
	case StateQueued:
		if j.heapIdx >= 0 {
			heap.Remove(&m.queue, j.heapIdx)
		}
		now := time.Now()
		j.state = StateCanceled
		j.finished = &now
		j.errMsg = "canceled while queued"
		j.errCode = "canceled"
		m.canceled++
		terminalSeconds.Observe(now.Sub(j.submitted).Seconds())
		m.emitStatusLocked(j)
		persist = m.persistFnLocked(j)
		m.log.Info("job canceled while queued", j.logAttrs()...)
	case StateRunning:
		if m.ls != nil && j.lease == nil && !j.claiming {
			// Leased by another replica: its context is out of our reach.
			owner := j.remoteOwner
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: %s is leased by %q", ErrRemote, id, owner)
		}
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	case StateCanceled:
		// Idempotent.
	default:
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is %s", ErrFinished, id, j.state)
	}
	st := m.statusLocked(j)
	m.mu.Unlock()
	persist()
	return st, nil
}

// Resume re-enqueues a canceled or failed job. An analyze job with a
// persisted checkpoint replays Algorithm 1 from it, with a result bitwise
// identical to an uninterrupted solve; without one (canceled while queued,
// or a crash before any step completed) it simply runs from the start. A
// resumed sweep replays every point of its per-point checkpoint verbatim
// (no solves) and computes only the points the interrupted run never
// reached — including the refined midpoints of an adaptive sweep — again
// bitwise identical to an uninterrupted run, even across a process
// restart through a DiskStore.
func (m *Manager) Resume(id string) (*Status, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.state != StateCanceled && j.state != StateFailed {
		st := j.state
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is %s", ErrNotResumable, id, st)
	}
	if len(m.queue) >= m.cfg.QueueLimit {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	j.state = StateQueued
	j.started, j.finished = nil, nil
	j.errMsg, j.errCode = "", ""
	j.interrupted = false
	j.cancelRequested = false
	j.resumes++
	m.resumed++
	heap.Push(&m.queue, j)
	m.emitStatusLocked(j)
	persist := m.persistFnLocked(j)
	st := m.statusLocked(j)
	m.cond.Signal()
	m.mu.Unlock()
	m.log.Info("job resumed", j.logAttrs("resumes", st.Resumes)...)
	persist()
	return st, nil
}

// Events returns the job's buffered events with Seq > after (pass -1 to
// replay from the start), blocking until at least one is available, the
// job is terminal with nothing newer (returning an empty slice — the
// stream is over), or ctx ends. When after predates the event ring (an
// SSE reconnect after a long gap) or postdates it (a cursor from before a
// manager restart — event logs are process-local), the slice leads with a
// synthetic status snapshot so the consumer is made whole before the
// replay continues.
func (m *Manager) Events(ctx context.Context, id string, after int64) ([]Event, error) {
	for {
		m.mu.Lock()
		j, ok := m.jobs[id]
		if !ok {
			m.mu.Unlock()
			return nil, ErrNotFound
		}
		evs := m.eventsSinceLocked(j, after)
		terminal := j.state.Terminal()
		ch := j.eventCh
		m.mu.Unlock()
		if len(evs) > 0 || terminal {
			return evs, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// eventsSinceLocked collects buffered events with Seq > after, resetting
// stale or trimmed-past cursors with a leading status snapshot (whose Seq
// is one before the oldest replayed event, or negative — "no id" on the
// wire — when the replay starts at 0).
func (m *Manager) eventsSinceLocked(j *job, after int64) []Event {
	var evs []Event
	if after >= j.nextSeq {
		// A cursor this process never issued (pre-restart stream): replay
		// from the beginning.
		after = -1
	}
	if after < j.firstSeq-1 {
		// The ring was trimmed past the cursor: lead with a snapshot.
		evs = append(evs, Event{Seq: j.firstSeq - 1, Type: "status", Status: m.statusLocked(j)})
		after = j.firstSeq - 1
	}
	for _, ev := range j.events {
		if ev.Seq > after {
			evs = append(evs, ev)
		}
	}
	return evs
}

// Close shuts the manager down: no new submissions, queued jobs stay
// queued in the store, and running jobs are interrupted at their next
// deterministic checkpoint and re-queued with their latest checkpoint
// persisted — a Manager reopened over the same store resumes them with
// bitwise-identical results. Close waits for the workers to finish
// checkpointing, up to ctx's deadline.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.closed = true
	// Cancel in-flight job contexts before releasing the lock, so once any
	// caller observes ErrClosed the interruption is already in motion.
	m.cancelAll()
	m.cond.Broadcast()
	m.mu.Unlock()
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: shutdown incomplete: %w", ctx.Err())
	}
}

// worker pulls jobs off the queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := heap.Pop(&m.queue).(*job)
		if m.ls != nil && !m.claimLocked(j) {
			continue
		}
		now := time.Now()
		wait := now.Sub(j.submitted)
		j.state = StateRunning
		j.started = &now
		// Sweep progress is incremental (OnPoint counts up), so a re-run —
		// resume or post-shutdown re-queue — restarts the counter; analyze
		// progress is absolute and overwrites itself.
		if j.kind == KindSweep {
			j.progress.PointsDone = 0
		}
		ctx, cancel := context.WithCancel(m.baseCtx)
		j.cancel = cancel
		m.started++
		m.emitStatusLocked(j)
		persist := m.persistFnLocked(j)
		m.mu.Unlock()

		queueWaitSeconds.Observe(wait.Seconds())
		m.log.Info("job started", j.logAttrs("queue_wait", wait.Seconds())...)
		persist()
		m.run(ctx, j)
		cancel()

		m.mu.Lock()
	}
}

// claimLocked acquires the shared-store lease for a just-popped job,
// releasing m.mu around the store I/O (claiming keeps the poller away
// meanwhile). It returns false when the job must not run here — the
// lease is held elsewhere, the store failed, or the job was canceled
// while we acquired — leaving the job off the local queue; the poller
// re-evaluates it on its next pass. On success the freshest stored
// snapshot is adopted before running: a stolen job resumes from the
// previous owner's last fenced write, which the store's locking
// guarantees is final once our Acquire bumped the token.
func (m *Manager) claimLocked(j *job) bool {
	j.claiming = true
	m.mu.Unlock()
	lease, err := m.ls.Acquire(j.id, m.cfg.ReplicaID, m.cfg.LeaseTTL)
	var fresh *Record
	if err == nil {
		if rec, ok, gerr := m.ls.Get(j.id); gerr == nil && ok {
			fresh = rec
		}
	}
	m.mu.Lock()
	j.claiming = false
	if err != nil {
		return false
	}
	release := func() {
		m.mu.Unlock()
		_ = m.ls.Release(lease)
		m.mu.Lock()
	}
	if j.state != StateQueued {
		// Canceled (or otherwise moved on) while we were acquiring.
		release()
		return false
	}
	if fresh != nil && fresh.State.Terminal() {
		// Another replica finished the job after our local copy went
		// stale; adopt its outcome instead of re-running.
		if m.adoptRecordLocked(j, fresh) {
			m.emitStatusLocked(j)
		}
		release()
		return false
	}
	m.leasesAcquired++
	j.lease = &lease
	j.leaseLost = false
	j.remoteOwner, j.remoteToken = "", 0
	j.remoteExpires = time.Time{}
	if fresh != nil {
		// Adopt checkpoints only — lifecycle fields are about to be
		// rewritten by the run itself.
		if ck, err := fresh.Checkpoint.decode(); err == nil && ck != nil {
			j.checkpoint = ck
		}
		if len(fresh.SweepCheckpoint) > len(j.sweepCK) {
			j.sweepCK = append([]SweepPoint(nil), fresh.SweepCheckpoint...)
		}
		if fresh.Resumes > j.resumes {
			j.resumes = fresh.Resumes
		}
		if fresh.Interrupted {
			j.interrupted = true
		}
	}
	return true
}

// adoptRecordLocked replaces the job's mutable state with another
// replica's persisted snapshot, reporting whether the lifecycle state
// changed. Only jobs this replica does not lease are adopted — the
// store is authoritative for them.
func (m *Manager) adoptRecordLocked(j *job, rec *Record) (stateChanged bool) {
	stateChanged = j.state != rec.State
	j.state = rec.State
	j.priority = rec.Priority
	j.progress = rec.Progress
	j.result, j.sweepResult = rec.Result, rec.SweepResult
	j.errMsg, j.errCode = rec.Error, rec.ErrorCode
	j.interrupted = rec.Interrupted
	j.resumes = rec.Resumes
	j.started, j.finished = rec.StartedAt, rec.FinishedAt
	if ck, err := rec.Checkpoint.decode(); err == nil {
		j.checkpoint = ck
	}
	j.sweepCK = append([]SweepPoint(nil), rec.SweepCheckpoint...)
	return stateChanged
}

// sweepSeenKey identifies one attack-curve point of a sweep checkpoint:
// the attack configuration plus the exact bit pattern of p (the bitwise
// determinism contract is what makes exact float matching sound).
type sweepSeenKey struct {
	depth, forks int
	pbits        uint64
}

// run executes one job body (no locks held) and records the outcome.
func (m *Manager) run(ctx context.Context, j *job) {
	if m.runGate != nil {
		m.runGate(j.id)
	}
	switch j.kind {
	case KindAnalyze:
		m.mu.Lock()
		resume := j.checkpoint
		m.mu.Unlock()
		opts := j.analyze.Options()
		opts = append(opts,
			selfishmining.WithProgress(func(lo, up float64, iter int) {
				m.mu.Lock()
				j.progress.BetaLow, j.progress.BetaUp, j.progress.Iterations = lo, up, iter
				m.emitLocked(j, Event{Type: "progress", Progress: cloneProgress(j.progress)})
				m.mu.Unlock()
				if m.progressGate != nil {
					m.progressGate(j.id, iter)
				}
			}),
			selfishmining.WithCheckpoints(func(ck selfishmining.Checkpoint) {
				m.mu.Lock()
				defer m.mu.Unlock()
				j.checkpoint = &ck
				j.progress.Sweeps = ck.Sweeps
			}),
		)
		if resume != nil {
			opts = append(opts, selfishmining.WithResume(resume))
		}
		res, err := m.svc.AnalyzeContext(ctx, j.analyze.Params(), opts...)
		var out *AnalyzeResult
		if err == nil {
			out = analyzeResult(res)
		}
		m.finish(j, err, func() {
			j.result = out
			j.progress.Iterations = out.Iterations
			j.progress.Sweeps = out.Sweeps
			j.progress.BetaLow, j.progress.BetaUp = out.ERRev, out.ERRevUpper
		})
	case KindSweep:
		opts := j.sweep.Options()
		// Feed the per-point checkpoint back as a resume set, and index it
		// so re-emitted (replayed) points are not re-appended below. The
		// key matches selfishmining's resume lookup: attack configuration
		// plus the exact bit pattern of p.
		m.mu.Lock()
		seen := make(map[sweepSeenKey]bool, len(j.sweepCK))
		if len(j.sweepCK) > 0 {
			resume := &selfishmining.SweepCheckpoint{
				Points: make([]selfishmining.SweepPoint, 0, len(j.sweepCK)),
			}
			for _, sp := range j.sweepCK {
				seen[sweepSeenKey{sp.Depth, sp.Forks, math.Float64bits(sp.P)}] = true
				resume.Points = append(resume.Points, selfishmining.SweepPoint{
					Config: selfishmining.AttackConfig{Depth: sp.Depth, Forks: sp.Forks},
					Series: sp.Series,
					PIndex: sp.PIndex, P: sp.P, Gamma: j.sweep.Gamma,
					Depth: sp.RefineDepth, ERRev: sp.ERRev, Sweeps: sp.Sweeps,
				})
			}
			opts.Resume = resume
		}
		m.mu.Unlock()
		opts.OnPoint = func(pt selfishmining.SweepPoint) {
			m.mu.Lock()
			j.progress.PointsDone++
			done := j.progress.PointsDone
			sp := NewSweepPoint(pt)
			m.emitLocked(j, Event{Type: "point", Progress: cloneProgress(j.progress), Point: &sp})
			persist := func() {}
			if k := (sweepSeenKey{sp.Depth, sp.Forks, math.Float64bits(sp.P)}); !seen[k] {
				seen[k] = true
				j.sweepCK = append(j.sweepCK, sp)
				// Persist per completed point: a cancel, crash, or shutdown
				// at any moment loses at most the points still in flight.
				persist = m.persistFnLocked(j)
			}
			m.mu.Unlock()
			persist()
			if m.pointGate != nil {
				m.pointGate(j.id, done)
			}
		}
		fig, err := m.svc.SweepContext(ctx, opts)
		var out *SweepResult
		if err == nil {
			out = sweepResult(fig)
		}
		m.finish(j, err, func() { j.sweepResult = out })
	}
}

// finish classifies a job body's outcome and records the transition.
// onDone installs the result under the lock when err is nil.
func (m *Manager) finish(j *job, err error, onDone func()) {
	m.mu.Lock()
	j.cancel = nil
	now := time.Now()
	started := j.started
	if j.leaseLost {
		// The lease was stolen or its renewal failed mid-run: the job
		// belongs to another replica now and our fencing token is dead,
		// so nothing we computed may be persisted or released. Surrender
		// the local copy — back to queued, off our heap — and let the
		// poller adopt the store's authoritative state on its next pass.
		j.lease = nil
		j.leaseLost = false
		j.state = StateQueued
		j.started = nil
		j.interrupted = true
		m.emitStatusLocked(j)
		m.mu.Unlock()
		m.log.Warn("job surrendered after lease loss", j.logAttrs()...)
		return
	}
	switch {
	case err == nil:
		j.state = StateDone
		j.finished = &now
		j.checkpoint = nil // a finished search has nothing to resume
		j.sweepCK = nil
		onDone()
		m.completed++
	case errors.Is(err, selfishmining.ErrCanceled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if j.cancelRequested || !m.closed {
			// Canceled by Cancel (or an unexpected context end while the
			// manager is live): terminal, resumable from the checkpoint.
			j.state = StateCanceled
			j.finished = &now
			j.errMsg = err.Error()
			j.errCode = "canceled"
			m.canceled++
		} else {
			// Graceful shutdown: checkpoint and hand the job to the next
			// process instead of discarding the work.
			j.state = StateQueued
			j.started = nil
			j.interrupted = true
			m.interruptedCount++
		}
	default:
		j.state = StateFailed
		j.finished = &now
		j.errMsg = err.Error()
		j.errCode = "solver"
		m.failed++
	}
	if j.state.Terminal() {
		if started != nil {
			runSeconds.Observe(now.Sub(*started).Seconds())
		}
		terminalSeconds.Observe(now.Sub(j.submitted).Seconds())
	}
	state, errMsg := j.state, j.errMsg
	m.emitStatusLocked(j)
	persist := m.persistFnLocked(j)
	var release *Lease
	if j.lease != nil {
		// The final snapshot above still writes under the lease's fence;
		// only then is the lease released so another replica can claim
		// (Resume, or the post-shutdown re-queue) and read that snapshot.
		l := *j.lease
		release = &l
		j.lease = nil
	}
	m.mu.Unlock()
	if state.Terminal() {
		attrs := j.logAttrs("state", string(state))
		if errMsg != "" {
			attrs = append(attrs, "error", errMsg)
		}
		m.log.Info("job finished", attrs...)
	} else {
		m.log.Info("job interrupted by shutdown, re-queued", j.logAttrs()...)
	}
	persist()
	if release != nil {
		if m.ls.Release(*release) == nil {
			m.mu.Lock()
			m.leasesReleased++
			m.mu.Unlock()
		}
	}
}

// janitor evicts expired jobs periodically.
func (m *Manager) janitor() {
	defer m.wg.Done()
	if m.cfg.TTL < 0 && m.cfg.MaxFinished < 0 {
		return
	}
	period := m.cfg.TTL / 4
	if period < time.Second {
		period = time.Second
	}
	if period > time.Minute {
		period = time.Minute
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			m.mu.Lock()
			evicted := m.evictLocked(time.Now())
			m.mu.Unlock()
			for _, id := range evicted {
				_ = m.cfg.Store.Delete(id)
			}
		case <-m.baseCtx.Done():
			return
		}
	}
}

// heartbeat renews this replica's held leases and republishes its
// presence record every Config.Heartbeat (multi-replica mode only).
func (m *Manager) heartbeat() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			m.renewLeases()
			m.publishReplica()
			m.lastBeat.Store(time.Now().UnixNano())
		case <-m.baseCtx.Done():
			return
		}
	}
}

// renewLeases extends every held lease by the configured TTL. A renewal
// rejected with ErrLeaseLost means the job was stolen (our process
// stalled past the TTL): the job body is canceled and its writes are
// fenced from here on. Other store errors are retried on the next beat
// — the lease stays valid until its TTL actually lapses.
func (m *Manager) renewLeases() {
	m.mu.Lock()
	held := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		if j.lease != nil && !j.leaseLost {
			held = append(held, j)
		}
	}
	m.mu.Unlock()
	for _, j := range held {
		m.mu.Lock()
		if j.lease == nil || j.leaseLost {
			m.mu.Unlock()
			continue
		}
		l := *j.lease
		m.mu.Unlock()
		nl, err := m.ls.Renew(l, m.cfg.LeaseTTL)
		m.mu.Lock()
		if j.lease != nil && j.lease.Token == l.Token {
			switch {
			case err == nil:
				j.lease = &nl
				m.leasesRenewed++
			case errors.Is(err, ErrLeaseLost):
				m.noteLeaseLostLocked(j)
			}
		}
		m.mu.Unlock()
	}
}

// noteLeaseLostLocked marks a running job's lease as lost and cancels
// its body; finish surrenders the job without persisting.
func (m *Manager) noteLeaseLostLocked(j *job) {
	if j.leaseLost {
		return
	}
	j.leaseLost = true
	m.leasesLost++
	if j.cancel != nil {
		j.cancel()
	}
}

// publishReplica upserts this replica's presence record (best effort).
func (m *Manager) publishReplica() {
	m.mu.Lock()
	info := ReplicaInfo{
		Replica:    m.cfg.ReplicaID,
		PID:        os.Getpid(),
		StartedAt:  m.replicaStart,
		UpdatedAt:  time.Now(),
		QueueDepth: len(m.queue),
		Leases: LeaseStats{
			Acquired: m.leasesAcquired, Renewed: m.leasesRenewed,
			Released: m.leasesReleased, Stolen: m.leasesStolen,
			Lost: m.leasesLost, StaleWrites: m.staleWrites,
		},
	}
	for _, j := range m.jobs {
		if j.state == StateRunning && j.lease != nil {
			info.Running++
		}
	}
	m.mu.Unlock()
	_ = m.ls.PublishReplica(info)
}

// poll mirrors the shared store every Config.PollInterval: jobs
// submitted on other replicas join the local index and queue, remote
// progress and terminal transitions are adopted (feeding local event
// streams), expired leases are stolen, and records evicted elsewhere
// are dropped (multi-replica mode only).
func (m *Manager) poll() {
	defer m.wg.Done()
	tick := time.NewTicker(m.cfg.PollInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			m.pollOnce()
		case <-m.baseCtx.Done():
			return
		}
	}
}

// pollOnce is one mirror pass over the shared store.
func (m *Manager) pollOnce() {
	recs, err := m.ls.List()
	if err != nil {
		return
	}
	leases, err := m.ls.Leases()
	if err != nil {
		return
	}
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	wake := 0
	seen := make(map[string]struct{}, len(recs))
	for _, rec := range recs {
		seen[rec.ID] = struct{}{}
		j, ok := m.jobs[rec.ID]
		if !ok {
			// A job first seen through the store (submitted elsewhere).
			j = m.indexRecordLocked(rec)
			if j.state == StateRunning {
				if l, lok := leases[j.id]; lok && l.Owner != m.cfg.ReplicaID && !l.Expired(now) {
					j.remoteOwner, j.remoteToken, j.remoteExpires = l.Owner, l.Token, l.Expires
				} else {
					m.stealLocked(j, leases[j.id])
				}
			}
			if j.state == StateQueued && j.heapIdx < 0 {
				heap.Push(&m.queue, j)
				wake++
			}
			m.emitStatusLocked(j)
			continue
		}
		if j.lease != nil || j.claiming {
			continue // ours right now: our fenced writes are authoritative
		}
		m.refreshLocked(j, rec, leases, now, &wake)
	}
	for id, j := range m.jobs {
		if _, ok := seen[id]; ok || j.lease != nil || j.claiming {
			continue
		}
		// Gone from the store. Terminal jobs were evicted by another
		// replica's janitor; a running record can vanish only after
		// finishing (then evicting) elsewhere, so absent a live lease it
		// is gone too. Locally queued jobs are kept: their Put may still
		// be in flight.
		_, live := leases[id]
		if j.state.Terminal() || (j.state == StateRunning && !live) {
			if j.heapIdx >= 0 {
				heap.Remove(&m.queue, j.heapIdx)
			}
			m.dropLocked(j)
		}
	}
	for ; wake > 0; wake-- {
		m.cond.Signal()
	}
}

// refreshLocked folds another replica's persisted snapshot into the
// local copy of a job this replica does not lease, then fixes up queue
// membership and lease display for the adopted state.
func (m *Manager) refreshLocked(j *job, rec *Record, leases map[string]Lease, now time.Time, wake *int) {
	if rec.State == StateRunning && j.state == StateQueued && j.heapIdx >= 0 {
		if l, ok := leases[j.id]; !ok || l.Expired(now) {
			// The record is the dead owner's last write and we already
			// queued the job as a steal candidate — keep our view.
			return
		}
	}
	changed := j.state != rec.State || j.progress != rec.Progress ||
		j.errMsg != rec.Error || j.resumes != rec.Resumes ||
		j.interrupted != rec.Interrupted || len(j.sweepCK) != len(rec.SweepCheckpoint)
	stateChanged, progressChanged := j.state != rec.State, j.progress != rec.Progress
	if changed {
		m.adoptRecordLocked(j, rec)
	}
	switch j.state {
	case StateQueued:
		j.remoteOwner, j.remoteToken = "", 0
		j.remoteExpires = time.Time{}
		if j.heapIdx < 0 {
			heap.Push(&m.queue, j)
			*wake++
		}
	case StateRunning:
		if l, ok := leases[j.id]; ok && !l.Expired(now) {
			// Claimed (or still held) elsewhere: mirror the lease and make
			// sure we are not also racing to run it.
			if j.heapIdx >= 0 {
				heap.Remove(&m.queue, j.heapIdx)
			}
			j.remoteOwner, j.remoteToken, j.remoteExpires = l.Owner, l.Token, l.Expires
		} else if j.heapIdx < 0 {
			// The lease lapsed: steal. The worker's Acquire is the real
			// claim; replicas racing here converge on one winner.
			m.stealLocked(j, leases[j.id])
			heap.Push(&m.queue, j)
			*wake++
			stateChanged = true
		}
	default: // terminal
		j.remoteOwner, j.remoteToken = "", 0
		j.remoteExpires = time.Time{}
		if j.heapIdx >= 0 {
			heap.Remove(&m.queue, j.heapIdx)
		}
	}
	if stateChanged {
		m.emitStatusLocked(j)
	} else if progressChanged {
		m.emitLocked(j, Event{Type: "progress", Progress: cloneProgress(j.progress)})
	}
}

// stealLocked converts a running record whose lease lapsed into a
// locally queued, interrupted steal candidate. Only a worker's Acquire
// makes the steal real — it bumps the fencing token, so however many
// replicas convert concurrently, exactly one becomes the new owner and
// the old owner's unfinished writes are rejected.
func (m *Manager) stealLocked(j *job, l Lease) {
	j.state = StateQueued
	j.started = nil
	j.interrupted = true
	m.interruptedCount++
	if l.Owner != "" && l.Owner != m.cfg.ReplicaID {
		m.leasesStolen++
		m.log.Warn("stealing expired lease", j.logAttrs("prev_owner", l.Owner)...)
	}
	j.remoteOwner, j.remoteToken = "", 0
	j.remoteExpires = time.Time{}
}

// evictLocked applies the retention policy — finished jobs past TTL go,
// then oldest-finished beyond MaxFinished — and returns the evicted ids.
// The store deletes are the CALLER's job, after releasing m.mu: like
// persistFnLocked's writes, store I/O must not stall the manager-wide
// mutex (a big eviction pass would otherwise block every progress hook
// and API call). A pending persist racing an eviction is harmless in
// practice: eviction fires at least a TTL after the job's last
// transition, long after its final snapshot landed.
func (m *Manager) evictLocked(now time.Time) (evicted []string) {
	var finished []*job
	for _, j := range m.jobs {
		if !j.state.Terminal() || j.finished == nil {
			continue
		}
		if m.cfg.TTL >= 0 && now.Sub(*j.finished) > m.cfg.TTL {
			evicted = append(evicted, m.dropLocked(j))
			continue
		}
		finished = append(finished, j)
	}
	if m.cfg.MaxFinished >= 0 && len(finished) > m.cfg.MaxFinished {
		sort.Slice(finished, func(i, k int) bool { return finished[i].finished.Before(*finished[k].finished) })
		for _, j := range finished[:len(finished)-m.cfg.MaxFinished] {
			evicted = append(evicted, m.dropLocked(j))
		}
	}
	return evicted
}

// dropLocked removes the job from the live index (the caller deletes its
// store record) and returns its id.
func (m *Manager) dropLocked(j *job) string {
	delete(m.jobs, j.id)
	m.evicted++
	// Wake any event stream still attached so it observes ErrNotFound.
	close(j.eventCh)
	j.eventCh = make(chan struct{})
	return j.id
}

// emitStatusLocked appends a lifecycle event.
func (m *Manager) emitStatusLocked(j *job) {
	m.emitLocked(j, Event{Type: "status", Status: m.statusLocked(j)})
}

// emitLocked appends ev to the job's ring and wakes waiting streams.
func (m *Manager) emitLocked(j *job, ev Event) {
	ev.Seq = j.nextSeq
	j.nextSeq++
	j.events = append(j.events, ev)
	if over := len(j.events) - m.cfg.EventBuffer; over > 0 {
		j.events = append(j.events[:0], j.events[over:]...)
		j.firstSeq += int64(over)
	}
	close(j.eventCh)
	j.eventCh = make(chan struct{})
}

// cloneProgress snapshots the progress for an event payload.
func cloneProgress(p Progress) *Progress { cp := p; return &cp }

// statusLocked snapshots a job's public view.
func (m *Manager) statusLocked(j *job) *Status {
	st := &Status{
		ID: j.id, Kind: j.kind, State: j.state, Priority: j.priority,
		RequestID: j.requestID,
		Analyze:   j.analyze, Sweep: j.sweep,
		Progress: j.progress,
		Result:   j.result, SweepResult: j.sweepResult,
		Error: j.errMsg, ErrorCode: j.errCode,
		HasCheckpoint: j.checkpoint != nil || len(j.sweepCK) > 0,
		Interrupted:   j.interrupted,
		Resumes:       j.resumes,
		SubmittedAt:   j.submitted,
	}
	if j.started != nil {
		t := *j.started
		st.StartedAt = &t
	}
	if j.finished != nil {
		t := *j.finished
		st.FinishedAt = &t
	}
	if j.lease != nil {
		st.Owner = j.lease.Owner
		st.LeaseToken = j.lease.Token
		t := j.lease.Expires
		st.LeaseExpires = &t
	} else if j.remoteOwner != "" {
		st.Owner = j.remoteOwner
		st.LeaseToken = j.remoteToken
		t := j.remoteExpires
		st.LeaseExpires = &t
	}
	return st
}

// persistFnLocked snapshots the job's durable state under m.mu and
// returns the write to run AFTER the manager lock is released: the
// O(states) checkpoint encoding and the store I/O must not stall every
// other job's progress hooks and every API call on m.mu. Per-job ordering
// is kept by persistMu + the persistSeq stamp — a snapshot that lost the
// race to a newer one is skipped, so the store always converges on the
// latest state. Store failures are deliberately non-fatal to the job
// itself (the in-memory record stays authoritative); a broken disk
// surfaces on restart, not mid-solve.
func (m *Manager) persistFnLocked(j *job) func() {
	rec := &Record{Status: *m.statusLocked(j), EventSeq: j.nextSeq}
	ck := j.checkpoint // replaced wholesale, never mutated: safe to share
	// sweepCK is append-only while the job runs, so a capacity-clamped
	// prefix is a stable snapshot even as later points land.
	rec.SweepCheckpoint = j.sweepCK[:len(j.sweepCK):len(j.sweepCK)]
	j.persistSeq++
	seq := j.persistSeq
	// Snapshot the lease with the record: the write must be fenced by
	// the token the job held when this state was current, not whatever
	// it holds when the write finally runs.
	var lease *Lease
	if j.lease != nil && !j.leaseLost {
		l := *j.lease
		lease = &l
	}
	return func() {
		j.persistMu.Lock()
		defer j.persistMu.Unlock()
		if seq <= j.persisted {
			return // a newer snapshot already landed
		}
		rec.Checkpoint = encodeCheckpoint(ck)
		var err error
		if lease != nil {
			err = m.ls.PutLeased(rec, *lease)
		} else {
			err = m.cfg.Store.Put(rec)
		}
		j.persisted = seq
		if err == nil || m.ls == nil {
			return
		}
		if errors.Is(err, ErrStaleToken) {
			// Fenced out: the job was stolen. Stop the body; persist
			// nothing further under this token.
			m.mu.Lock()
			m.staleWrites++
			if lease != nil && j.lease != nil && j.lease.Token == lease.Token {
				m.noteLeaseLostLocked(j)
			}
			m.mu.Unlock()
		}
		// ErrLeaseHeld on an unleased write: another replica's live
		// lease owns the record — its fenced snapshots are newer than
		// ours, so dropping this write is exactly right.
	}
}

// Stats is a point-in-time snapshot of the manager's counters.
type Stats struct {
	// Submitted..Evicted are process-lifetime event counters. Resumed
	// counts Resume calls; Interrupted counts shutdown/restart re-queues.
	Submitted   uint64 `json:"submitted"`
	Started     uint64 `json:"started"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Canceled    uint64 `json:"canceled"`
	Resumed     uint64 `json:"resumed"`
	Evicted     uint64 `json:"evicted"`
	Interrupted uint64 `json:"interrupted"`
	// QueueDepth and Running are current gauges; Retained counts every
	// job still indexed (any state). In multi-replica mode QueueDepth
	// counts this replica's local queue (replicas race to claim, so
	// shared queued jobs appear in several replicas' depths).
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	Retained   int `json:"retained"`
	// Replica identifies this manager in multi-replica mode (empty
	// otherwise); RemoteRunning gauges jobs running on other replicas;
	// Leases counts this replica's lease-protocol events.
	Replica       string      `json:"replica,omitempty"`
	RemoteRunning int         `json:"remote_running,omitempty"`
	Leases        *LeaseStats `json:"leases,omitempty"`
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		Submitted: m.submitted, Started: m.started, Completed: m.completed,
		Failed: m.failed, Canceled: m.canceled, Resumed: m.resumed,
		Evicted: m.evicted, Interrupted: m.interruptedCount,
		QueueDepth: len(m.queue), Retained: len(m.jobs),
	}
	for _, j := range m.jobs {
		if j.state != StateRunning {
			continue
		}
		if m.ls != nil && j.lease == nil {
			st.RemoteRunning++
		} else {
			st.Running++
		}
	}
	if m.ls != nil {
		st.Replica = m.cfg.ReplicaID
		st.Leases = &LeaseStats{
			Acquired: m.leasesAcquired, Renewed: m.leasesRenewed,
			Released: m.leasesReleased, Stolen: m.leasesStolen,
			Lost: m.leasesLost, StaleWrites: m.staleWrites,
		}
	}
	return st
}

// Replicas lists the presence records of every replica sharing this
// manager's store (nil outside multi-replica mode).
func (m *Manager) Replicas() ([]ReplicaInfo, error) {
	if m.ls == nil {
		return nil, nil
	}
	return m.ls.Replicas()
}
