package jobs

import (
	"errors"
	"sync/atomic"
	"time"
)

// Lease errors. Acquire/Renew/Release/PutLeased wrap these with detail;
// match with errors.Is.
var (
	// ErrLeaseHeld: the job is leased by another replica whose lease has
	// not expired (Acquire), or an unleased Put would clobber a live
	// lease holder's writes (Put on a LeaseStore).
	ErrLeaseHeld = errors.New("jobs: lease held by another replica")
	// ErrLeaseLost: the presented lease no longer matches the store's
	// lease state — the job was stolen (token advanced) or released.
	ErrLeaseLost = errors.New("jobs: lease lost")
	// ErrStaleToken: a fenced write presented a token below the store's
	// high-water mark. The writer must stop touching the job.
	ErrStaleToken = errors.New("jobs: stale fencing token")
)

// Lease is one replica's claim on one job, carrying a monotonic fencing
// token. Tokens are the safety mechanism: every Acquire — including a
// steal of an expired lease — bumps the job's token above every token
// ever issued for it, and fenced writes (PutLeased) are rejected unless
// they present the current token. Expiry is only a liveness mechanism:
// it decides when other replicas may steal, and is judged against local
// clocks, so clock skew can delay or hasten a steal but can never let
// two writers both pass the fence.
type Lease struct {
	JobID   string    `json:"job"`
	Owner   string    `json:"owner"`
	Token   uint64    `json:"token"`
	Expires time.Time `json:"expires"`
}

// Expired reports whether the lease's TTL has lapsed at now. An expired
// lease is stealable, but remains valid for fenced writes until someone
// actually steals it (bumping the token).
func (l Lease) Expired(now time.Time) bool { return now.After(l.Expires) }

// LeaseStore is a Store shared by multiple Manager replicas. It adds
// lease claims with monotonic fencing tokens and a replica presence
// registry. On a LeaseStore, plain Put is a conditional write: it is
// rejected with ErrLeaseHeld while another replica holds a live,
// unexpired lease on the record's job (submitters and recoverers write
// unleased; running jobs write through PutLeased).
type LeaseStore interface {
	Store
	// Acquire claims the job for owner with the given TTL, bumping the
	// job's fencing token above every previously issued token. It fails
	// with ErrLeaseHeld while another owner's unexpired lease is live;
	// an expired lease is stolen by acquiring over it.
	Acquire(id, owner string, ttl time.Duration) (Lease, error)
	// Renew extends the lease's expiry, keeping its token. It fails with
	// ErrLeaseLost when the lease was stolen or released. Renewing an
	// expired-but-unstolen lease succeeds: expiry is liveness, not
	// safety.
	Renew(l Lease, ttl time.Duration) (Lease, error)
	// Release ends the lease, letting others acquire (with a higher
	// token) immediately. It fails with ErrLeaseLost when the lease was
	// already stolen or released.
	Release(l Lease) error
	// PutLeased is the fenced record write: it stores rec only while l
	// is the job's current lease, and fails with ErrStaleToken once the
	// token has advanced (or the lease was released).
	PutLeased(rec *Record, l Lease) error
	// Leases returns the live lease per job id, including expired ones
	// that have not been stolen or released (callers judge expiry).
	Leases() (map[string]Lease, error)
	// PublishReplica upserts this replica's presence record for
	// cross-replica visibility (stats endpoints).
	PublishReplica(info ReplicaInfo) error
	// Replicas lists every published replica presence record.
	Replicas() ([]ReplicaInfo, error)
}

// LeaseStats counts one replica's lease-protocol events.
type LeaseStats struct {
	// Acquired counts successful lease acquisitions (including steals).
	Acquired uint64 `json:"acquired"`
	// Renewed counts successful heartbeat renewals.
	Renewed uint64 `json:"renewed"`
	// Released counts leases released after the job finished locally.
	Released uint64 `json:"released"`
	// Stolen counts expired foreign leases this replica converted into
	// local queue entries (the subsequent Acquire fences the old owner).
	Stolen uint64 `json:"stolen"`
	// Lost counts leases this replica lost mid-run (failed renewal or a
	// rejected fenced write); the running job is canceled locally.
	Lost uint64 `json:"lost"`
	// StaleWrites counts fenced writes rejected with ErrStaleToken.
	StaleWrites uint64 `json:"stale_writes"`
}

// ReplicaInfo is one replica's published presence record: identity plus
// a heartbeat-refreshed snapshot of its load and lease counters.
type ReplicaInfo struct {
	Replica    string     `json:"replica"`
	PID        int        `json:"pid,omitempty"`
	StartedAt  time.Time  `json:"started_at"`
	UpdatedAt  time.Time  `json:"updated_at"`
	Running    int        `json:"running"`
	QueueDepth int        `json:"queue_depth"`
	Leases     LeaseStats `json:"leases"`
}

// localLeases is the LeaseStore of a fleet of one. New wraps every Store
// that is not a LeaseStore in it, so a single replica claims, fences,
// renews and releases through the same Manager code as a fleet. With no
// peer to contend with it keeps no lease table: Acquire grants the next
// token, Renew extends, Release and fenced writes never refuse, and
// Leases is empty, because a restarted process holds no leases. Records
// go straight to the wrapped Store.
type localLeases struct {
	Store
	tokens atomic.Uint64
	self   atomic.Pointer[ReplicaInfo] // the one presence record
}

func (s *localLeases) Acquire(id, owner string, ttl time.Duration) (Lease, error) {
	return Lease{JobID: id, Owner: owner, Token: s.tokens.Add(1), Expires: time.Now().Add(ttl)}, nil
}

func (s *localLeases) Renew(l Lease, ttl time.Duration) (Lease, error) {
	l.Expires = time.Now().Add(ttl)
	return l, nil
}

func (s *localLeases) Release(Lease) error                   { return nil }
func (s *localLeases) PutLeased(rec *Record, _ Lease) error  { return s.Put(rec) }
func (s *localLeases) Leases() (map[string]Lease, error)     { return nil, nil }
func (s *localLeases) PublishReplica(info ReplicaInfo) error { s.self.Store(&info); return nil }

// Replicas needs one PublishReplica first; New makes it.
func (s *localLeases) Replicas() ([]ReplicaInfo, error) { return []ReplicaInfo{*s.self.Load()}, nil }
