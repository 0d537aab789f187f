package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/selfishmining/jobs"
	"repro/selfishmining/obs"
)

// handle registers h behind the server's observability middleware. Every
// request gets a request ID — the client's X-Request-ID header, or a
// generated one — echoed back in the response header and carried on the
// request context, so handler logs (and job records submitted under the
// request) correlate with the access-log line. The middleware records
// per-route request counts, latency, and in-flight gauge, and emits one
// structured access-log line per request.
func (s *server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewID()
		}
		w.Header().Set("X-Request-ID", reqID)
		r = r.WithContext(obs.WithRequestID(r.Context(), reqID))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.httpInFlight.Add(1)
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		s.httpInFlight.Add(-1)
		s.httpRequests.With(pattern, r.Method, strconv.Itoa(sw.status)).Inc()
		s.httpDuration.With(pattern).Observe(elapsed.Seconds())
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("route", pattern),
			slog.String("method", r.Method),
			slog.Int("status", sw.status),
			slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)))
	})
}

// statusWriter captures the response status for metrics and access logs.
// It forwards Flush so the SSE and NDJSON streaming handlers keep their
// immediate-delivery behavior through the middleware, and exposes the
// wrapped writer via Unwrap (the http.ResponseController protocol).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// readyzResponse is the GET /readyz body. Dependency names the failing
// check on a 503 — "store" (the job store's health probe), "manager" (the
// job layer is shut down), or "lease_heartbeat" (lease renewal stalled)
// — so orchestration and alerts can branch without parsing the error
// text.
type readyzResponse struct {
	OK         bool   `json:"ok"`
	Dependency string `json:"dependency,omitempty"`
	Error      string `json:"error,omitempty"`
}

// handleReadyz reports whether this process can do useful work right now:
// the job manager is live with its workers started, its store passes the
// health probe, and the lease heartbeat has completed a pass recently.
// Liveness stays on /healthz; readiness is the gate load balancers should
// route on.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.Ready(); err != nil {
		dep := "manager"
		switch {
		case errors.Is(err, jobs.ErrStoreUnhealthy):
			dep = "store"
		case errors.Is(err, jobs.ErrHeartbeatStale):
			dep = "lease_heartbeat"
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		s.writeJSONBody(w, r, readyzResponse{OK: false, Dependency: dep, Error: err.Error()})
		return
	}
	s.writeJSON(w, r, readyzResponse{OK: true})
}

// streamWriteError counts and logs one response-stream write failure.
// stream names the framing: "json" (buffered bodies), "ndjson"
// (/v1/sweep/stream lines), or "sse" (event streams). A failure here
// almost always means the client hung up mid-response; the context
// cancellation stops the remaining work, but the drop itself must be
// visible — silent write errors were exactly how truncated streams went
// unnoticed.
func (s *server) streamWriteError(r *http.Request, stream string, err error) {
	s.streamErrs.With(stream).Inc()
	s.log.LogAttrs(r.Context(), slog.LevelWarn, "stream write failed",
		slog.String("stream", stream),
		slog.String("error", err.Error()))
}

func (s *server) writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	w.Header().Set("Content-Type", "application/json")
	s.writeJSONBody(w, r, v)
}

// writeJSONBody encodes v for callers that already committed status and
// headers (like the 202 job-submit response). Encode failures cannot
// change the response anymore, so they are logged and counted instead of
// silently dropped.
func (s *server) writeJSONBody(w http.ResponseWriter, r *http.Request, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.streamWriteError(r, "json", fmt.Errorf("encoding response: %w", err))
	}
}
