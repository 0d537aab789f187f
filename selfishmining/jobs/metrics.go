package jobs

import "repro/selfishmining/obs"

// Job-latency histograms, on the shared default registry. They tick at
// lifecycle transitions only — worker pickup and terminal classification —
// never inside a running job body.
var (
	queueWaitSeconds = obs.Default().Histogram("jobs_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.", obs.DefBuckets())
	runSeconds = obs.Default().Histogram("jobs_run_seconds",
		"Wall time of job bodies that reached a terminal state.", obs.DefBuckets())
	terminalSeconds = obs.Default().Histogram("jobs_terminal_seconds",
		"Submit-to-terminal latency of finished jobs.", obs.DefBuckets())
)

// RegisterMetrics wires this manager's accounting into a metrics registry
// as scrape-time collector series mirrored from Stats(): the lifecycle
// counters, the queue/running/retained gauges, and the lease-protocol
// counters labeled with this replica's id.
// Values are snapshot at each exposition, so the job lifecycle carries no
// extra instrumentation; register a Manager on at most one registry
// (typically the per-server registry cmd/serve exposes on /metrics).
func (m *Manager) RegisterMetrics(r *obs.Registry) {
	submitted := r.Counter("jobs_submitted_total",
		"Jobs accepted by Submit.")
	started := r.Counter("jobs_started_total",
		"Job bodies started by workers (resumes and steals start again).")
	completed := r.Counter("jobs_completed_total",
		"Jobs that finished in state done.")
	failed := r.Counter("jobs_failed_total",
		"Jobs that finished in state failed.")
	canceled := r.Counter("jobs_canceled_total",
		"Jobs that finished in state canceled.")
	resumed := r.Counter("jobs_resumed_total",
		"Resume calls that re-enqueued a terminal job.")
	evicted := r.Counter("jobs_evicted_total",
		"Finished jobs evicted by the retention policy.")
	interrupted := r.Counter("jobs_interrupted_total",
		"Running jobs re-queued by shutdown, crash recovery, or a lease steal.")
	queueDepth := r.Gauge("jobs_queue_depth",
		"Jobs waiting in this replica's local queue.")
	running := r.Gauge("jobs_running",
		"Jobs this replica is running right now.")
	retained := r.Gauge("jobs_retained",
		"Jobs still indexed, in any state.")
	remoteRunning := r.Gauge("jobs_remote_running",
		"Jobs running under another replica's lease.")
	leaseOps := r.CounterVec("jobs_lease_operations_total",
		"Lease-protocol events of this replica, by operation "+
			"(acquire, renew, release, steal, lost, stale_reject).",
		"replica", "op")
	r.OnCollect(func() {
		st := m.Stats()
		submitted.Store(st.Submitted)
		started.Store(st.Started)
		completed.Store(st.Completed)
		failed.Store(st.Failed)
		canceled.Store(st.Canceled)
		resumed.Store(st.Resumed)
		evicted.Store(st.Evicted)
		interrupted.Store(st.Interrupted)
		queueDepth.Set(float64(st.QueueDepth))
		running.Set(float64(st.Running))
		retained.Set(float64(st.Retained))
		remoteRunning.Set(float64(st.RemoteRunning))
		leaseOps.With(st.Replica, "acquire").Store(st.Leases.Acquired)
		leaseOps.With(st.Replica, "renew").Store(st.Leases.Renewed)
		leaseOps.With(st.Replica, "release").Store(st.Leases.Released)
		leaseOps.With(st.Replica, "steal").Store(st.Leases.Stolen)
		leaseOps.With(st.Replica, "lost").Store(st.Leases.Lost)
		leaseOps.With(st.Replica, "stale_reject").Store(st.Leases.StaleWrites)
	})
}
