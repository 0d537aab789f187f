package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/selfishmining/jobs"
	"repro/selfishmining/obs"
)

// jobError maps the job manager's error taxonomy onto HTTP statuses plus
// machine-readable codes, so clients can branch without parsing prose.
// The load-bearing one is "already_finished": DELETE on a job that
// already reached done/failed is benign for a client that merely wants
// the job to not be running, and the code lets it treat the 409 as
// success instead of string-matching the error text.
func (s *server) jobError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.httpErrorCode(w, r, err, http.StatusNotFound, "not_found")
	case errors.Is(err, jobs.ErrQueueFull):
		s.httpErrorCode(w, r, err, http.StatusTooManyRequests, "queue_full")
	case errors.Is(err, jobs.ErrClosed):
		s.httpErrorCode(w, r, err, http.StatusServiceUnavailable, "shutting_down")
	case errors.Is(err, jobs.ErrNotResumable):
		s.httpErrorCode(w, r, err, http.StatusConflict, "not_resumable")
	case errors.Is(err, jobs.ErrFinished):
		s.httpErrorCode(w, r, err, http.StatusConflict, "already_finished")
	case errors.Is(err, jobs.ErrRemote):
		// The job is leased by another replica of the fleet; cancel it
		// through that replica (the lease owner rides the error text).
		s.httpErrorCode(w, r, err, http.StatusConflict, "remote_job")
	case errors.Is(err, jobs.ErrBadCursor):
		s.httpErrorCode(w, r, err, http.StatusBadRequest, "bad_cursor")
	default:
		// Everything else the manager rejects at Submit is a spec problem.
		s.httpError(w, r, err, http.StatusBadRequest)
	}
}

// checkJobRequest runs the server check of the request's spec — the same
// one /v1/analyze and /v1/sweep apply — before it reaches the manager.
// Sweep specs are normalized in place, with the server's default configs;
// the manager's own validation re-runs cheaply after.
func (s *server) checkJobRequest(req *jobs.Request) error {
	switch req.Kind {
	case jobs.KindAnalyze:
		if req.Analyze == nil {
			return fmt.Errorf("missing analyze spec")
		}
		return s.checkAnalyze(*req.Analyze)
	case jobs.KindSweep:
		if req.Sweep == nil {
			return fmt.Errorf("missing sweep spec")
		}
		return s.checkSweep(req.Sweep)
	default:
		return fmt.Errorf("unknown job kind %q", req.Kind)
	}
}

// handleJobSubmit enqueues an async job and answers 202 with its initial
// snapshot; the solve proceeds on the server's job workers.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobs.Request
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if err := s.checkJobRequest(&req); err != nil {
		s.httpError(w, r, err, http.StatusBadRequest)
		return
	}
	// Tag the job with the submitting request's id: the job's lifecycle
	// logs and status snapshots then correlate back to this access-log
	// line, long after the HTTP request has completed.
	req.RequestID = obs.RequestIDFrom(r.Context())
	st, err := s.mgr.Submit(req)
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	s.writeJSONBody(w, r, st)
}

// stripStrategy removes the O(states) strategy payload from a snapshot
// unless the caller asked for it.
func stripStrategy(st *jobs.Status, include bool) *jobs.Status {
	if include || st.Result == nil || st.Result.Strategy == nil {
		return st
	}
	cp := *st
	res := *st.Result
	res.Strategy = nil
	cp.Result = &res
	return &cp
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	s.writeJSON(w, r, stripStrategy(st, r.URL.Query().Get("include_strategy") == "1"))
}

// jobListResponse is the GET /v1/jobs body. NextCursor is present only
// on a truncated page: pass it back as ?cursor= for the next page.
type jobListResponse struct {
	Jobs       []*jobs.Status `json:"jobs"`
	NextCursor string         `json:"next_cursor,omitempty"`
}

func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := jobs.Filter{
		State:  jobs.State(q.Get("state")),
		Kind:   jobs.Kind(q.Get("kind")),
		Cursor: q.Get("cursor"),
	}
	// ?status= is an alias for ?state= (the JSON field is "state", but
	// "status" is what most job APIs call it).
	if f.State == "" {
		f.State = jobs.State(q.Get("status"))
	}
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			s.httpErrorCode(w, r, fmt.Errorf("limit %q: need a positive integer", raw),
				http.StatusBadRequest, "bad_limit")
			return
		}
		f.Limit = n
	}
	list, next, err := s.mgr.Page(f)
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	out := make([]*jobs.Status, len(list))
	for i, st := range list {
		out[i] = stripStrategy(st, false)
	}
	s.writeJSON(w, r, jobListResponse{Jobs: out, NextCursor: next})
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	s.writeJSON(w, r, stripStrategy(st, false))
}

func (s *server) handleJobResume(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Resume(r.PathValue("id"))
	if err != nil {
		s.jobError(w, r, err)
		return
	}
	s.writeJSON(w, r, stripStrategy(st, false))
}

// sseKeepAlive bounds how long an idle event stream goes without traffic:
// between events the handler emits a comment line so intermediaries keep
// the connection alive.
const sseKeepAlive = 15 * time.Second

// handleJobEvents streams a job's event log as Server-Sent Events:
// "status" on every lifecycle transition, "progress" per binary-search
// step, "point" per completed sweep grid point. Event ids are the job's
// sequence numbers — a client reconnecting with Last-Event-ID (as
// EventSource does automatically) replays only what it missed, and one
// that fell behind the per-job ring receives a fresh status snapshot
// first. The stream ends after the terminal status event.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.mgr.Get(id); err != nil {
		s.jobError(w, r, err)
		return
	}
	after := jobs.LastEventID(r)
	sse := jobs.NewSSEWriter(w)
	ctx := r.Context()
	for {
		waitCtx, cancel := context.WithTimeout(ctx, sseKeepAlive)
		evs, err := s.mgr.Events(waitCtx, id, after)
		cancel()
		switch {
		case err == nil:
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			// Idle interval, client still there: keep the stream warm.
			if werr := sse.Comment("keep-alive"); werr != nil {
				s.streamWriteError(r, "sse", fmt.Errorf("keep-alive: %w", werr))
				return
			}
			continue
		case errors.Is(err, jobs.ErrNotFound):
			// Evicted mid-stream.
			if werr := sse.Send(-1, "error", map[string]string{"error": err.Error()}); werr != nil {
				s.streamWriteError(r, "sse", fmt.Errorf("eviction notice: %w", werr))
			}
			return
		default:
			return // client gone or server shutting down
		}
		if len(evs) == 0 {
			return // terminal state reached and fully replayed
		}
		for _, ev := range evs {
			payload := ev
			if payload.Status != nil {
				payload.Status = stripStrategy(payload.Status, false)
			}
			if werr := sse.Send(ev.Seq, ev.Type, payload); werr != nil {
				s.streamWriteError(r, "sse", fmt.Errorf("event %d: %w", ev.Seq, werr))
				return
			}
			after = ev.Seq
		}
	}
}
