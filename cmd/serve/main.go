// Command serve exposes the selfish-mining analysis pipeline as an
// HTTP/JSON service backed by selfishmining.Service: repeated queries are
// answered from an LRU result cache, concurrent identical requests are
// coalesced into one solve, attack structures are compiled once and shared
// across chain parameters, and sweep grid points warm-start from the
// nearest solved p. Results are bitwise identical to cold offline analysis
// regardless of cache state.
//
// Endpoints:
//
//	POST /v1/analyze       one attack configuration -> certified ERRev
//	POST /v1/analyze/batch many configurations, deduplicated
//	POST /v1/sweep         a Figure-2 panel (curves over a p-grid)
//	POST /v1/sweep/stream  the same panel as NDJSON, one line per point
//	POST /v1/sweep/sse     the same panel as Server-Sent Events
//	POST /v1/jobs          submit an async analyze/sweep job -> job id
//	GET  /v1/jobs          list retained jobs (?state=/?status=, ?kind=
//	                       filters; ?limit= + ?cursor= paginate)
//	GET  /v1/jobs/{id}     one job's snapshot (?include_strategy=1)
//	DELETE /v1/jobs/{id}   cancel (checkpointing a running analysis)
//	POST /v1/jobs/{id}/resume  re-enqueue a canceled/failed job
//	GET  /v1/jobs/{id}/events  the job's live event stream as SSE
//	GET  /v1/models        registered attack-model families
//	GET  /v1/stats         cache, coalescing, cancellation and job counters
//	GET  /healthz          liveness
//	GET  /readyz           readiness (job store, workers, lease heartbeat)
//	GET  /metrics          Prometheus text exposition (see docs/OBSERVABILITY.md)
//
// Analyze, batch and sweep requests accept a "model" field selecting the
// attack-model family (default "fork", the paper's model); GET /v1/models
// lists every family with its parameter semantics and default shape.
//
// Jobs outlive requests: POST /v1/jobs returns a job id immediately and
// the solve proceeds on the server's job workers (-jobs-workers), fed from
// a priority/FIFO queue. Canceling a running analyze job checkpoints the
// binary search (β bracket + warm value vector); resuming replays from the
// checkpoint with a result bitwise identical to an uninterrupted solve.
// With -jobs-dir the records (and checkpoints) persist to disk, so jobs
// survive a server restart — interrupted ones re-queue automatically.
// GET /v1/jobs/{id}/events streams status/progress/point events as SSE;
// reconnect with Last-Event-ID to replay only what was missed (streams
// that fall behind the per-job ring get a fresh status snapshot first).
//
// With -replica-id, several serve processes share one -jobs-dir as a
// fleet: each job is executed under a lease carrying a monotonic fencing
// token, renewed every -jobs-heartbeat, so a replica's writes are
// rejected once its lease lapses and another replica steals the job. A
// replica that crashes mid-sweep loses its lease after -jobs-lease-ttl;
// a peer (polling the shared store every -jobs-poll) steals the job and
// resumes it from the persisted checkpoint, bitwise identical to an
// uninterrupted run. Job snapshots carry the owning replica and token;
// GET /v1/stats adds the fleet's presence records under "replicas", and
// DELETE on a job leased elsewhere answers 409 with code "remote_job".
//
// Every request is governed by its context end to end: a client that
// disconnects cancels its in-flight solve at the next value-iteration
// sweep boundary (and frees its concurrency slot immediately if it was
// queued), -request-timeout bounds every request server-side, and a
// per-request "timeout_ms" field tightens that bound per call. Interrupted
// requests answer with status 499 (client cancel) or 504 (deadline) and an
// "error"/"code" body ("canceled" / "deadline"). /v1/sweep/stream emits
// each completed grid point as one NDJSON line as it is solved, then a
// terminal summary (or error) line; disconnecting mid-stream stops the
// remaining grid work.
//
// Observability: every request carries a request id (the client's
// X-Request-ID header, or a generated one, echoed back in the response
// header) that threads through structured logs and submitted job records;
// GET /metrics exposes the process's metric registry in Prometheus text
// format and GET /readyz reports readiness with the failing dependency
// named in the 503 body. -log-level and -log-format shape the structured
// logs on stderr; -pprof-addr serves net/http/pprof profiles on a separate
// listener kept off the public address. See docs/OBSERVABILITY.md for the
// metric catalog and log schema.
//
// Usage:
//
//	serve [-addr :8080] [-workers N] [-max-concurrent N] [-result-cache N]
//	      [-structure-cache N] [-warm-cache N] [-max-states N]
//	      [-max-batch N] [-request-timeout 0] [-shutdown-timeout 10s]
//	      [-jobs-workers 2] [-jobs-queue 1024] [-jobs-ttl 1h] [-jobs-dir DIR]
//	      [-replica-id NAME] [-jobs-lease-ttl 15s] [-jobs-heartbeat 5s]
//	      [-jobs-poll 2s] [-log-level info] [-log-format text]
//	      [-pprof-addr ADDR]
//
// Example:
//
//	curl -s localhost:8080/v1/analyze -d \
//	  '{"p":0.3,"gamma":0.5,"d":2,"f":2,"l":4,"timeout_ms":30000}'
//	curl -sN localhost:8080/v1/sweep/stream -d \
//	  '{"gamma":0.5,"pmax":0.3,"pstep":0.05,"configs":[{"d":2,"f":1}]}'
//
// On SIGINT/SIGTERM the server cancels all in-flight solves through its
// base context (they stop at their next sweep boundary and answer 499),
// checkpoints running jobs back into the store instead of discarding them,
// and then drains connections for up to -shutdown-timeout.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/results"
	"repro/selfishmining"
	"repro/selfishmining/jobs"
	"repro/selfishmining/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// serverConfig is the validated flag set of one serve process.
type serverConfig struct {
	addr            string
	workers         int
	maxConcurrent   int
	resultCache     int
	structureCache  int
	warmCache       int
	maxStates       int
	maxBatch        int
	requestTimeout  time.Duration
	shutdownTimeout time.Duration
	jobsWorkers     int
	jobsQueue       int
	jobsTTL         time.Duration
	jobsDir         string
	replicaID       string
	jobsLeaseTTL    time.Duration
	jobsHeartbeat   time.Duration
	jobsPoll        time.Duration
	logFormat       string
	logLevel        slog.Level
	pprofAddr       string

	// logger overrides the flag-derived stderr logger when non-nil
	// (in-process tests inject a buffer or a discard here).
	logger *slog.Logger
}

// parseFlags parses and validates; any invalid flag or combination is an
// error (and a non-zero exit), never a silently adjusted value.
func parseFlags(args []string) (*serverConfig, error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	cfg := &serverConfig{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.workers, "workers", 0, "goroutines per value-iteration sweep (0 = all cores); results are identical at any setting")
	fs.IntVar(&cfg.maxConcurrent, "max-concurrent", runtime.NumCPU(), "max solves in flight (0 = unlimited); queued requests wait")
	fs.IntVar(&cfg.resultCache, "result-cache", selfishmining.DefaultResultCacheSize, "solved-analysis LRU entries (negative disables)")
	fs.IntVar(&cfg.structureCache, "structure-cache", selfishmining.DefaultStructureCacheSize, "compiled-structure LRU entries (negative disables)")
	fs.IntVar(&cfg.warmCache, "warm-cache", selfishmining.DefaultWarmCacheSize, "warm-start neighborhood LRU entries (negative disables warm starts)")
	fs.IntVar(&cfg.maxStates, "max-states", 16<<20, "reject requests whose MDP exceeds this many states")
	fs.IntVar(&cfg.maxBatch, "max-batch", 1024, "max requests per batch call")
	fs.DurationVar(&cfg.requestTimeout, "request-timeout", 0, "server-side deadline per request (0 = none); a request's timeout_ms can tighten it")
	fs.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 10*time.Second, "graceful drain budget on SIGINT/SIGTERM (in-flight solves are canceled immediately)")
	fs.IntVar(&cfg.jobsWorkers, "jobs-workers", jobs.DefaultWorkers, "async jobs executing at once")
	fs.IntVar(&cfg.jobsQueue, "jobs-queue", jobs.DefaultQueueLimit, "max queued async jobs (submissions beyond answer 429)")
	fs.DurationVar(&cfg.jobsTTL, "jobs-ttl", jobs.DefaultTTL, "retention of finished jobs before eviction (negative = keep forever)")
	fs.StringVar(&cfg.jobsDir, "jobs-dir", "", "persist job records (and resume checkpoints) to this directory; empty = in-memory only")
	fs.StringVar(&cfg.replicaID, "replica-id", "", "join the replica fleet sharing -jobs-dir under this name; empty = single-replica")
	fs.DurationVar(&cfg.jobsLeaseTTL, "jobs-lease-ttl", jobs.DefaultLeaseTTL, "job lease lifetime without renewal before other replicas may steal it")
	fs.DurationVar(&cfg.jobsHeartbeat, "jobs-heartbeat", 0, "lease renewal and presence-publish period (0 = a third of -jobs-lease-ttl)")
	fs.DurationVar(&cfg.jobsPoll, "jobs-poll", jobs.DefaultPollInterval, "how often a replica mirrors the shared store for remote jobs")
	logLevel := fs.String("log-level", "info", "structured-log threshold: debug, info, warn, or error")
	fs.StringVar(&cfg.logFormat, "log-format", "text", "structured-log encoding on stderr: text or json")
	fs.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate listen address; empty = disabled")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.addr == "" {
		return nil, fmt.Errorf("-addr: need a listen address")
	}
	if cfg.workers < 0 {
		return nil, fmt.Errorf("-workers %d: need >= 0 (0 = all cores)", cfg.workers)
	}
	if cfg.maxConcurrent < 0 {
		return nil, fmt.Errorf("-max-concurrent %d: need >= 0 (0 = unlimited)", cfg.maxConcurrent)
	}
	if cfg.maxStates < 1 {
		return nil, fmt.Errorf("-max-states %d: need >= 1", cfg.maxStates)
	}
	if cfg.maxBatch < 1 {
		return nil, fmt.Errorf("-max-batch %d: need >= 1", cfg.maxBatch)
	}
	if cfg.requestTimeout < 0 {
		return nil, fmt.Errorf("-request-timeout %v: need >= 0 (0 = none)", cfg.requestTimeout)
	}
	if cfg.shutdownTimeout <= 0 {
		return nil, fmt.Errorf("-shutdown-timeout %v: need > 0", cfg.shutdownTimeout)
	}
	if cfg.jobsWorkers < 1 {
		return nil, fmt.Errorf("-jobs-workers %d: need >= 1", cfg.jobsWorkers)
	}
	if cfg.jobsQueue < 1 {
		return nil, fmt.Errorf("-jobs-queue %d: need >= 1", cfg.jobsQueue)
	}
	if cfg.jobsTTL == 0 {
		return nil, fmt.Errorf("-jobs-ttl 0: need a retention duration (negative = keep forever)")
	}
	if cfg.replicaID != "" && cfg.jobsDir == "" {
		return nil, fmt.Errorf("-replica-id %q: multi-replica mode needs -jobs-dir (the shared store)", cfg.replicaID)
	}
	if cfg.jobsLeaseTTL <= 0 {
		return nil, fmt.Errorf("-jobs-lease-ttl %v: need > 0", cfg.jobsLeaseTTL)
	}
	if cfg.jobsHeartbeat < 0 {
		return nil, fmt.Errorf("-jobs-heartbeat %v: need >= 0 (0 = a third of -jobs-lease-ttl)", cfg.jobsHeartbeat)
	}
	if cfg.jobsHeartbeat >= cfg.jobsLeaseTTL {
		return nil, fmt.Errorf("-jobs-heartbeat %v: must be shorter than -jobs-lease-ttl %v", cfg.jobsHeartbeat, cfg.jobsLeaseTTL)
	}
	if cfg.jobsPoll <= 0 {
		return nil, fmt.Errorf("-jobs-poll %v: need > 0", cfg.jobsPoll)
	}
	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return nil, fmt.Errorf("-log-level %q: need debug, info, warn, or error", *logLevel)
	}
	cfg.logLevel = lvl
	if cfg.logFormat != "text" && cfg.logFormat != "json" {
		return nil, fmt.Errorf("-log-format %q: need text or json", cfg.logFormat)
	}
	return cfg, nil
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	return serve(cfg, sig, nil)
}

// serve runs the HTTP server until a stop signal (or listener failure),
// then shuts down in two phases: first it cancels the server's base
// context — every in-flight request context is a child of it, so running
// solves stop at their next value-iteration sweep boundary and answer 499
// instead of burning their concurrency slot to completion — and only then
// drains connections for up to -shutdown-timeout. ready, if non-nil,
// receives the bound address once the listener is up (used by the
// shutdown-under-load test, which needs a real socket and a real signal
// path).
func serve(cfg *serverConfig, stop <-chan os.Signal, ready chan<- string) error {
	logger := cfg.logger
	if logger == nil {
		l, err := obs.NewLogger(os.Stderr, cfg.logLevel, cfg.logFormat)
		if err != nil {
			return err
		}
		logger = l
	}
	svc := selfishmining.NewService(selfishmining.ServiceConfig{
		ResultCacheSize:    cfg.resultCache,
		StructureCacheSize: cfg.structureCache,
		WarmCacheSize:      cfg.warmCache,
		Workers:            cfg.workers,
		MaxConcurrent:      cfg.maxConcurrent,
	})
	mgr, err := newManager(svc, cfg, logger)
	if err != nil {
		return err
	}
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv := &http.Server{
		Handler:           newServer(svc, mgr, cfg, logger),
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.pprofAddr != "" {
		// Profiles ride their own listener so the debug surface is never
		// reachable through the public address.
		psrv, perr := servePprof(cfg.pprofAddr, logger)
		if perr != nil {
			return perr
		}
		defer psrv.Close()
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String(),
		"max_concurrent", cfg.maxConcurrent, "result_cache", cfg.resultCache)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errCh:
		return err
	case s := <-stop:
		logger.Info("shutting down: checkpointing jobs, canceling in-flight solves",
			"signal", s.String(), "drain_budget", cfg.shutdownTimeout.String())
		// Order matters: cancel the HTTP base context first so SSE streams
		// and synchronous solves unblock, then close the manager — running
		// jobs stop at their next deterministic checkpoint and are
		// re-queued with their checkpoint persisted, not discarded — and
		// only then drain connections.
		cancelBase()
		ctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
		defer cancel()
		if err := mgr.Close(ctx); err != nil {
			logger.Error("job shutdown incomplete", "error", err.Error())
		}
		return srv.Shutdown(ctx)
	}
}

// servePprof starts the net/http/pprof mux on its own listener. Only the
// pprof routes are mounted — the debug listener exposes nothing else.
func servePprof(addr string, logger *slog.Logger) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-pprof-addr: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("pprof listener failed", "error", err.Error())
		}
	}()
	logger.Info("pprof listening", "addr", ln.Addr().String())
	return srv, nil
}

// newManager assembles the async-job manager from the flag set: a disk
// store when -jobs-dir is given, and on top of that a lease-coordinated
// shared directory store when -replica-id joins this process to a fleet.
func newManager(svc *selfishmining.Service, cfg *serverConfig, logger *slog.Logger) (*jobs.Manager, error) {
	jcfg := jobs.Config{
		Workers:    cfg.jobsWorkers,
		QueueLimit: cfg.jobsQueue,
		TTL:        cfg.jobsTTL,
		Logger:     logger,
	}
	switch {
	case cfg.replicaID != "":
		store, err := jobs.NewDirStore(cfg.jobsDir)
		if err != nil {
			return nil, err
		}
		jcfg.Store = store
		jcfg.ReplicaID = cfg.replicaID
		jcfg.LeaseTTL = cfg.jobsLeaseTTL
		jcfg.Heartbeat = cfg.jobsHeartbeat
		jcfg.PollInterval = cfg.jobsPoll
	case cfg.jobsDir != "":
		store, err := jobs.NewDiskStore(cfg.jobsDir)
		if err != nil {
			return nil, err
		}
		jcfg.Store = store
	}
	return jobs.New(svc, jcfg)
}

// server routes HTTP requests onto a selfishmining.Service and its async
// job manager. Every route is registered through handle (see obs.go), so
// request IDs, per-route metrics, and access logs apply uniformly; reg is
// the per-server registry carrying this server's collectors, merged with
// the shared default registry on /metrics.
type server struct {
	svc *selfishmining.Service
	mgr *jobs.Manager
	cfg *serverConfig
	mux *http.ServeMux
	log *slog.Logger
	reg *obs.Registry

	httpRequests *obs.CounterVec   // route, method, code
	httpDuration *obs.HistogramVec // route
	httpInFlight *obs.Gauge
	streamErrs   *obs.CounterVec // stream: json, ndjson, sse
}

func newServer(svc *selfishmining.Service, mgr *jobs.Manager, cfg *serverConfig, logger *slog.Logger) http.Handler {
	if logger == nil {
		logger = obs.Discard()
	}
	reg := obs.NewRegistry()
	svc.RegisterMetrics(reg)
	mgr.RegisterMetrics(reg)
	s := &server{
		svc: svc, mgr: mgr, cfg: cfg, mux: http.NewServeMux(),
		log: logger, reg: reg,
		httpRequests: reg.CounterVec("http_requests_total",
			"HTTP requests served, by route, method, and status code.",
			"route", "method", "code"),
		httpDuration: reg.HistogramVec("http_request_duration_seconds",
			"HTTP request latency, by route.", obs.DefBuckets(), "route"),
		httpInFlight: reg.Gauge("http_requests_in_flight",
			"HTTP requests currently being served."),
		streamErrs: reg.CounterVec("stream_write_errors_total",
			"Response-stream write/encode failures, by stream framing "+
				"(json, ndjson, sse).", "stream"),
	}
	s.handle("POST /v1/analyze", s.handleAnalyze)
	s.handle("POST /v1/analyze/batch", s.handleBatch)
	s.handle("POST /v1/sweep", s.handleSweep)
	s.handle("POST /v1/sweep/stream", func(w http.ResponseWriter, r *http.Request) {
		// Clients that prefer Server-Sent Events get that framing, as from
		// /v1/sweep/sse.
		s.streamSweep(w, r, strings.Contains(r.Header.Get("Accept"), "text/event-stream"))
	})
	s.handle("POST /v1/sweep/sse", func(w http.ResponseWriter, r *http.Request) { s.streamSweep(w, r, true) })
	s.handle("POST /v1/jobs", s.handleJobSubmit)
	s.handle("GET /v1/jobs", s.handleJobList)
	s.handle("GET /v1/jobs/{id}", s.handleJobGet)
	s.handle("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.handle("POST /v1/jobs/{id}/resume", s.handleJobResume)
	s.handle("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.handle("GET /v1/models", s.handleModels)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /readyz", s.handleReadyz)
	s.handle("GET /metrics", obs.Handler(s.reg, obs.Default()).ServeHTTP)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// analyzeRequest is the wire form of one analysis query: the analyze job
// spec plus two per-request fields.
type analyzeRequest struct {
	jobs.AnalyzeSpec
	// IncludeStrategy inlines the full strategy (one action index per MDP
	// state) in the response; off by default since it is O(states).
	IncludeStrategy bool `json:"include_strategy,omitempty"`
	// TimeoutMs bounds this request server-side, in milliseconds; on
	// expiry the solve stops at its next sweep boundary and the response
	// is 504 with code "deadline". It can only tighten -request-timeout,
	// never extend it (both deadlines apply).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// analyzeResponse is the wire form of one analysis result. StrategyERRev is
// a pointer because the skipped marker is NaN, which JSON cannot carry.
// Cached/Coalesced/DurationMs are per-request serving metadata; batch items
// omit them (the batch carries one aggregate duration_ms instead).
type analyzeResponse struct {
	Request       analyzeRequest `json:"request"`
	NumStates     int            `json:"num_states"`
	ERRev         float64        `json:"errev"`
	ERRevUpper    float64        `json:"errev_upper"`
	ChainQuality  float64        `json:"chain_quality"`
	StrategyERRev *float64       `json:"strategy_errev,omitempty"`
	Iterations    int            `json:"iterations"`
	Sweeps        int            `json:"sweeps"`
	Cached        bool           `json:"cached,omitempty"`
	Coalesced     bool           `json:"coalesced,omitempty"`
	DurationMs    float64        `json:"duration_ms,omitempty"`
	Strategy      []int          `json:"strategy,omitempty"`
}

// buildResponse assembles the wire form shared by the analyze and batch
// handlers.
func buildResponse(req analyzeRequest, res *selfishmining.Analysis) *analyzeResponse {
	resp := &analyzeResponse{
		Request:      req,
		NumStates:    res.NumStates,
		ERRev:        res.ERRev,
		ERRevUpper:   res.ERRevUpper,
		ChainQuality: res.ChainQuality(),
		Iterations:   res.Iterations,
		Sweeps:       res.Sweeps,
	}
	if !math.IsNaN(res.StrategyERRev) {
		v := res.StrategyERRev
		resp.StrategyERRev = &v
	}
	if req.IncludeStrategy {
		resp.Strategy = res.Strategy
	}
	return resp
}

// checkStates applies the -max-states guard to a validated point.
func (s *server) checkStates(p selfishmining.AttackParams) error {
	if n := p.NumStates(); n > s.cfg.maxStates {
		return fmt.Errorf("model has %d states, server limit is %d (-max-states)", n, s.cfg.maxStates)
	}
	return nil
}

// checkAnalyze is the server check of every analyze spec — /v1/analyze,
// its batch form and analyze jobs alike: the spec's own validation (ranges
// and epsilon), then the -max-states guard.
func (s *server) checkAnalyze(spec jobs.AnalyzeSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	return s.checkStates(spec.Params())
}

// parseAnalyze decodes and checks one /v1/analyze body; every error is the
// client's (400).
func (s *server) parseAnalyze(body io.Reader) (analyzeRequest, error) {
	var req analyzeRequest
	if err := decode(body, &req); err != nil {
		return req, err
	}
	if req.TimeoutMs < 0 {
		return req, fmt.Errorf("timeout_ms %d: need >= 0", req.TimeoutMs)
	}
	return req, s.checkAnalyze(req.AnalyzeSpec)
}

// requestCtx derives the context governing one request's solve: the
// request's own context (canceled when the client disconnects, or when the
// server shuts down, via the base context), tightened by -request-timeout
// and the request's timeout_ms when positive. Both timeouts apply — the
// per-request value cannot extend the server-wide bound.
func (s *server) requestCtx(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	ctx, cancel := r.Context(), context.CancelFunc(func() {})
	if s.cfg.requestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.requestTimeout)
	}
	if timeoutMs > 0 {
		inner, innerCancel := context.WithTimeout(ctx, time.Duration(timeoutMs)*time.Millisecond)
		outer := cancel
		ctx, cancel = inner, func() { innerCancel(); outer() }
	}
	return ctx, cancel
}

// msSince is the elapsed wall-clock since start, in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	req, err := s.parseAnalyze(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.httpError(w, r, err, http.StatusBadRequest)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	start := time.Now()
	res, info, err := s.svc.AnalyzeDetailedContext(ctx, req.Params(), req.Options()...)
	if err != nil {
		// The request was well-formed; a failure here is the solver's or
		// the context's (matching the batch endpoint's classification).
		s.solveError(w, r, err)
		return
	}
	resp := buildResponse(req, res)
	resp.Cached = info.Cached
	resp.Coalesced = info.Coalesced
	resp.DurationMs = msSince(start)
	s.writeJSON(w, r, resp)
}

type batchRequest struct {
	Requests []analyzeRequest `json:"requests"`
}

type batchResponse struct {
	Results []*analyzeResponse `json:"results"`
	// DurationMs is the wall-clock of the whole (deduplicated, pooled)
	// batch; items carry no individual timing.
	DurationMs float64 `json:"duration_ms"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		s.httpError(w, r, fmt.Errorf("empty batch"), http.StatusBadRequest)
		return
	}
	if len(req.Requests) > s.cfg.maxBatch {
		s.httpError(w, r, fmt.Errorf("batch of %d exceeds limit %d (-max-batch)", len(req.Requests), s.cfg.maxBatch), http.StatusBadRequest)
		return
	}
	// Validate everything up front so a bad entry cannot waste the batch's
	// solves, then let the service deduplicate and fan out.
	first := req.Requests[0]
	if first.TimeoutMs < 0 {
		s.httpError(w, r, fmt.Errorf("timeout_ms %d: need >= 0", first.TimeoutMs), http.StatusBadRequest)
		return
	}
	params := make([]selfishmining.AttackParams, len(req.Requests))
	for i, ar := range req.Requests {
		if err := s.checkAnalyze(ar.AnalyzeSpec); err != nil {
			s.httpError(w, r, fmt.Errorf("request %d: %w", i, err), http.StatusBadRequest)
			return
		}
		if ar.Epsilon != first.Epsilon || ar.SkipEval != first.SkipEval ||
			ar.BoundOnly != first.BoundOnly || ar.TimeoutMs != first.TimeoutMs {
			s.httpError(w, r, fmt.Errorf("request %d: batch options must match request 0 (epsilon, skip_eval, bound_only, timeout_ms)", i), http.StatusBadRequest)
			return
		}
		params[i] = ar.Params()
	}
	ctx, cancel := s.requestCtx(r, first.TimeoutMs)
	defer cancel()
	start := time.Now()
	analyses, err := s.svc.AnalyzeBatchContext(ctx, params, first.Options()...)
	if err != nil {
		s.solveError(w, r, err)
		return
	}
	resp := batchResponse{
		Results:    make([]*analyzeResponse, len(analyses)),
		DurationMs: msSince(start),
	}
	for i, res := range analyses {
		resp.Results[i] = buildResponse(req.Requests[i], res)
	}
	s.writeJSON(w, r, resp)
}

// sweepRequest is the wire form of one Figure-2 panel request (buffered or
// streaming): a sweep job spec whose p-grid is given as pmin/pmax/pstep,
// plus timeout_ms.
type sweepRequest struct {
	// Model selects the attack-model family of the panel's attack curves
	// ("" = "fork"); GET /v1/models lists the valid names.
	Model   string             `json:"model,omitempty"`
	Gamma   float64            `json:"gamma"`
	PMin    float64            `json:"pmin,omitempty"`
	PMax    float64            `json:"pmax,omitempty"`  // default 0.3
	PStep   float64            `json:"pstep,omitempty"` // default 0.01
	Configs []jobs.SweepConfig `json:"configs,omitempty"`
	// Len, TreeWidth and Epsilon default as in the sweep job spec.
	Len       int     `json:"l,omitempty"`
	TreeWidth int     `json:"tree_width,omitempty"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	// Adaptive turns the p-grid into the coarse pass of a threshold-refining
	// sweep: cells whose solved values prove curvature beyond tolerance are
	// recursively bisected, so the response's x-axis is a superset of the
	// requested grid. tolerance and max_depth default server-side
	// (selfishmining.DefaultSweepTolerance / DefaultSweepMaxDepth);
	// max_points caps the refined points added (0 = unlimited).
	Adaptive  bool    `json:"adaptive,omitempty"`
	Tolerance float64 `json:"tolerance,omitempty"`
	MaxDepth  int     `json:"max_depth,omitempty"`
	MaxPoints int     `json:"max_points,omitempty"`
	// TimeoutMs bounds the whole panel server-side, in milliseconds (see
	// analyzeRequest.TimeoutMs).
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// wireSeries is one named curve of a sweep response.
type wireSeries = jobs.SweepSeries

type sweepResponse struct {
	Title      string       `json:"title"`
	X          []float64    `json:"x"`
	Series     []wireSeries `json:"series"`
	DurationMs float64      `json:"duration_ms"`
}

// seriesOf lists a figure's curves in wire form.
func seriesOf(fig *results.Figure) []wireSeries {
	var out []wireSeries
	for _, series := range fig.Series {
		out = append(out, wireSeries{Name: series.Name, Values: series.Values})
	}
	return out
}

// maxSweepXValues bounds the worst-case x-axis of every sweep request: the
// grid plus, for an adaptive sweep, every midpoint refinement could add.
const maxSweepXValues = 10000

// serverDefaultConfigs are the fork curves of a sweep request that names
// none. The library default adds the 9.4M-state d=4 configuration; the
// server default stays bounded.
var serverDefaultConfigs = []jobs.SweepConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}, {Depth: 2, Forks: 2}}

// spec turns the body into a sweep job spec, materializing the p-grid from
// pmin/pmax/pstep (defaults 0, 0.3 and 0.01) once its length is known to
// be bounded.
func (req sweepRequest) spec() (*jobs.SweepSpec, error) {
	if req.TimeoutMs < 0 {
		return nil, fmt.Errorf("timeout_ms %d: need >= 0", req.TimeoutMs)
	}
	pmax, pstep := cmp.Or(req.PMax, 0.3), cmp.Or(req.PStep, 0.01)
	if !(pstep > 0) || !(req.PMin <= pmax) {
		return nil, fmt.Errorf("bad p-grid: pmin=%v pmax=%v pstep=%v", req.PMin, pmax, pstep)
	}
	// Bound the grid before materializing it: a tiny step would make it
	// astronomically long.
	if n := (pmax-req.PMin)/pstep + 1; !(n <= maxSweepXValues) {
		return nil, fmt.Errorf("p-grid has ~%.0f points, server limit is %d", n, maxSweepXValues)
	}
	return &jobs.SweepSpec{
		Model: req.Model, Gamma: req.Gamma,
		PGrid:   results.Grid(req.PMin, pmax, pstep),
		Configs: req.Configs, Len: req.Len, TreeWidth: req.TreeWidth, Epsilon: req.Epsilon,
		Adaptive: req.Adaptive, Tolerance: req.Tolerance, MaxDepth: req.MaxDepth, MaxPoints: req.MaxPoints,
	}, nil
}

// checkSweep is the server check of every sweep request — /v1/sweep, its
// streams and sweep jobs alike. It fills the server's default configs,
// normalizes the spec in place (selfishmining.SweepOptions.Normalize does
// all validation), then bounds the worst-case x-axis and applies the
// -max-states guard per config.
func (s *server) checkSweep(spec *jobs.SweepSpec) error {
	if len(spec.Configs) == 0 && selfishmining.IsDefaultModel(spec.Model) {
		spec.Configs = slices.Clone(serverDefaultConfigs)
	}
	if err := spec.Normalize(); err != nil {
		return err
	}
	// Full refinement adds up to 2^max_depth − 1 midpoints per coarse
	// point, fewer when max_points caps them.
	worst := float64(len(spec.PGrid))
	if spec.Adaptive {
		refined := worst * (math.Exp2(float64(spec.MaxDepth)) - 1)
		if spec.MaxPoints > 0 {
			refined = min(refined, float64(spec.MaxPoints))
		}
		worst += refined
	}
	if worst > maxSweepXValues {
		return fmt.Errorf("sweep could reach ~%.0f x-values, server limit is %d (shrink the grid, lower max_depth or set max_points)",
			worst, maxSweepXValues)
	}
	for _, c := range spec.Configs {
		p := selfishmining.AttackParams{
			Model:     spec.Model,
			Adversary: spec.PGrid[0], Switching: spec.Gamma,
			Depth: c.Depth, Forks: c.Forks, MaxForkLen: spec.Len,
		}
		if err := s.checkStates(p); err != nil {
			return fmt.Errorf("config d=%d f=%d: %w", c.Depth, c.Forks, err)
		}
	}
	return nil
}

// parseSweep decodes and checks one /v1/sweep* body into the options to run
// and the body's timeout_ms; every error is the client's (400).
func (s *server) parseSweep(body io.Reader) (selfishmining.SweepOptions, int, error) {
	var req sweepRequest
	if err := decode(body, &req); err != nil {
		return selfishmining.SweepOptions{}, 0, err
	}
	spec, err := req.spec()
	if err == nil {
		err = s.checkSweep(spec)
	}
	if err != nil {
		return selfishmining.SweepOptions{}, 0, err
	}
	return spec.Options(), req.TimeoutMs, nil
}

// readSweep is parseSweep on a request body, answering 400 itself.
func (s *server) readSweep(w http.ResponseWriter, r *http.Request) (selfishmining.SweepOptions, int, bool) {
	opts, timeoutMs, err := s.parseSweep(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.httpError(w, r, err, http.StatusBadRequest)
		return opts, 0, false
	}
	return opts, timeoutMs, true
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	opts, timeoutMs, ok := s.readSweep(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestCtx(r, timeoutMs)
	defer cancel()
	start := time.Now()
	fig, err := s.svc.SweepContext(ctx, opts)
	if err != nil {
		s.solveError(w, r, err)
		return
	}
	s.writeJSON(w, r, sweepResponse{Title: fig.Title, X: fig.X, Series: seriesOf(fig), DurationMs: msSince(start)})
}

// The records of a sweep stream: a "point" per completed grid point (in
// completion order), then exactly one terminal "summary" (the full panel,
// as /v1/sweep would have returned it) or "error". Each kind is its own
// struct so every field of a point — including legitimate zero values like
// the p=0 grid point — is always present on the wire.
type pointLine struct {
	Type string `json:"type"`
	jobs.SweepPoint
}

type summaryLine struct {
	Type       string       `json:"type"`
	Title      string       `json:"title"`
	X          []float64    `json:"x"`
	AllSeries  []wireSeries `json:"all_series"`
	Points     int          `json:"points"`
	DurationMs float64      `json:"duration_ms"`
}

type errorLine struct {
	Type  string `json:"type"`
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// streamSweep computes the /v1/sweep panel but delivers each completed
// attack-curve grid point the moment it is solved, then the terminal
// summary or error record. It frames each record as one NDJSON line
// (/v1/sweep/stream), or with sse as one Server-Sent Event named by the
// record type, whose id counts the points sent before it (/v1/sweep/sse,
// and /v1/sweep/stream for clients that Accept text/event-stream). Once
// streaming has started, errors can no longer change the HTTP status. A
// client that disconnects cancels the request context, which stops the
// remaining grid work at the next value-iteration sweep boundary; unlike
// job event streams there is no replay.
func (s *server) streamSweep(w http.ResponseWriter, r *http.Request, sse bool) {
	opts, timeoutMs, ok := s.readSweep(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestCtx(r, timeoutMs)
	defer cancel()

	var send func(id int64, kind string, record any) error
	framing := "sse"
	if sse {
		send = jobs.NewSSEWriter(w).Send
	} else {
		framing, send = "ndjson", ndjsonSender(w)
	}
	var points int64
	// A broken pipe keeps failing for every later write; report the first
	// failure once (counted + logged) instead of a line of noise per point.
	var dropped bool
	emit := func(kind string, record any) {
		if err := send(points, kind, record); err != nil && !dropped {
			dropped = true
			s.streamWriteError(r, framing, fmt.Errorf("%s record: %w", kind, err))
		}
	}
	// OnPoint calls are serialized by the sweep and stop before
	// SweepContext returns, so the stream is never written concurrently. A
	// failed write means the client is gone; ctx then stops the sweep.
	opts.OnPoint = func(pt selfishmining.SweepPoint) {
		emit("point", pointLine{Type: "point", SweepPoint: jobs.NewSweepPoint(pt)})
		points++
	}
	start := time.Now()
	fig, err := s.svc.SweepContext(ctx, opts)
	if err != nil {
		_, code := solveStatus(err)
		emit("error", errorLine{Type: "error", Error: err.Error(), Code: code})
		return
	}
	emit("summary", summaryLine{
		Type: "summary", Title: fig.Title, X: fig.X, AllSeries: seriesOf(fig),
		Points: int(points), DurationMs: msSince(start),
	})
}

// ndjsonSender frames stream records as NDJSON lines, each flushed as it
// is written.
func ndjsonSender(w http.ResponseWriter) func(int64, string, any) error {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	return func(_ int64, _ string, record any) error {
		if err := enc.Encode(record); err != nil {
			return err
		}
		if fl != nil {
			fl.Flush()
		}
		return nil
	}
}

// handleModels is the family discovery endpoint: every registered
// attack-model family with its parameter semantics and default shape.
func (s *server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, map[string]any{
		"default": selfishmining.DefaultModel,
		"models":  selfishmining.Models(),
	})
}

// statsResponse inlines the service counters (unchanged wire shape) and
// nests the job manager's under "jobs".
type statsResponse struct {
	selfishmining.ServiceStats
	Jobs jobs.Stats `json:"jobs"`
	// Replicas lists the fleet's presence records in multi-replica mode
	// (absent otherwise). Each carries the peer's lease counters and load.
	Replicas []jobs.ReplicaInfo `json:"replicas,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{ServiceStats: s.svc.Stats(), Jobs: s.mgr.Stats()}
	// Presence is advisory: a replica-registry read failure must not
	// take down the stats endpoint, so it is logged and omitted.
	if reps, err := s.mgr.Replicas(); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "replica registry read failed",
			slog.String("error", err.Error()))
	} else {
		resp.Replicas = reps
	}
	s.writeJSON(w, r, resp)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, map[string]bool{"ok": true})
}

// maxBodyBytes bounds request bodies before any decoding: a full-sized
// batch is well under a megabyte, so 4 MiB leaves ample slack while
// keeping an unauthenticated client from ballooning the decoder.
const maxBodyBytes = 4 << 20

// decode parses one request body strictly: unknown fields are errors,
// catching typos like "gama".
func decode(body io.Reader, dst any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// decodeJSON decodes the request body, writing a 400 and returning false
// on failure.
func (s *server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := decode(http.MaxBytesReader(w, r.Body, maxBodyBytes), dst); err != nil {
		s.httpError(w, r, err, http.StatusBadRequest)
		return false
	}
	return true
}

// statusClientClosedRequest is the de-facto standard (nginx) status for a
// request abandoned by its client before the server finished it.
const statusClientClosedRequest = 499

// solveStatus classifies a post-validation failure: context interruptions
// map to 499 (client cancel / server shutdown) or 504 (deadline) with a
// machine-readable code, everything else to a plain 500.
func solveStatus(err error) (status int, code string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "canceled"
	default:
		return http.StatusInternalServerError, ""
	}
}

// solveError writes a post-validation failure with its cancellation
// taxonomy (the request was well-formed; the solve failed or was
// interrupted).
func (s *server) solveError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := solveStatus(err)
	s.httpErrorCode(w, r, err, status, code)
}

func (s *server) httpError(w http.ResponseWriter, r *http.Request, err error, code int) {
	s.httpErrorCode(w, r, err, code, "")
}

// httpErrorCode writes an error body with an optional machine-readable
// "code" field (the job endpoints' error taxonomy; empty omits it).
func (s *server) httpErrorCode(w http.ResponseWriter, r *http.Request, err error, status int, code string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body := map[string]string{"error": err.Error()}
	if code != "" {
		body["code"] = code
	}
	if encErr := json.NewEncoder(w).Encode(body); encErr != nil {
		s.streamWriteError(r, "json", fmt.Errorf("encoding error response: %w", encErr))
	}
}
