package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/selfishmining"
	"repro/selfishmining/jobs"
)

// httpDo is a bare request helper for methods http.Post cannot do.
func httpDo(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// waitJobState polls the job endpoint until the job reaches want.
func waitJobState(t *testing.T, baseURL, id string, want jobs.State) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := httpDo(t, http.MethodGet, baseURL+"/v1/jobs/"+id, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job: %d %s", resp.StatusCode, data)
		}
		var st jobs.Status
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("bad job JSON %s: %v", data, err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job reached %s (error %q) while waiting for %s", st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %s in time", id, want)
	return jobs.Status{}
}

func TestJobEndpointLifecycle(t *testing.T) {
	ts, svc := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/jobs",
		`{"kind":"analyze","analyze":{"p":0.3,"gamma":0.5,"d":2,"f":1,"l":3,"epsilon":1e-3}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	var st jobs.Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != jobs.StateQueued {
		t.Fatalf("submit snapshot: %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location %q", loc)
	}
	done := waitJobState(t, ts.URL, st.ID, jobs.StateDone)
	if done.Result == nil {
		t.Fatal("done job has no result")
	}
	want, err := svc.AnalyzeContext(context.Background(), selfishmining.AttackParams{
		Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 3,
	}, selfishmining.WithEpsilon(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(done.Result.ERRev) != math.Float64bits(want.ERRev) {
		t.Errorf("job ERRev %v != direct %v", done.Result.ERRev, want.ERRev)
	}
	// The strategy is withheld unless asked for.
	if done.Result.Strategy != nil {
		t.Error("strategy inlined without include_strategy")
	}
	_, data = httpDo(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"?include_strategy=1", "")
	var full jobs.Status
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatal(err)
	}
	if full.Result == nil || len(full.Result.Strategy) == 0 {
		t.Error("include_strategy=1 returned no strategy")
	}

	// Listing includes the job; the state filter works.
	_, data = httpDo(t, http.MethodGet, ts.URL+"/v1/jobs?state=done", "")
	var list struct {
		Jobs []jobs.Status `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("list: %+v", list.Jobs)
	}
	_, data = httpDo(t, http.MethodGet, ts.URL+"/v1/jobs?state=running", "")
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Errorf("running filter returned %d jobs", len(list.Jobs))
	}

	// Stats carry the job counters.
	resp, data = httpDo(t, http.MethodGet, ts.URL+"/v1/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var stats struct {
		Solves uint64 `json:"Solves"`
		Jobs   struct {
			Submitted uint64 `json:"submitted"`
			Completed uint64 `json:"completed"`
			Queue     int    `json:"queue_depth"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatalf("stats JSON %s: %v", data, err)
	}
	if stats.Jobs.Submitted != 1 || stats.Jobs.Completed != 1 {
		t.Errorf("job stats: %+v", stats.Jobs)
	}
}

func TestJobEndpointValidation(t *testing.T) {
	ts, _ := testServer(t, "-max-states", "1000")
	cases := []struct {
		body string
		code int
	}{
		{`{"kind":"analyze"}`, http.StatusBadRequest},
		{`{"kind":"mystery","analyze":{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":2}}`, http.StatusBadRequest},
		{`{"kind":"analyze","analyze":{"p":1.5,"gamma":0.5,"d":1,"f":1,"l":2}}`, http.StatusBadRequest},
		// The -max-states guard applies to jobs too (d=4 f=2 l=4 is 9.4M states).
		{`{"kind":"analyze","analyze":{"p":0.3,"gamma":0.5,"d":4,"f":2,"l":4}}`, http.StatusBadRequest},
		{`{"kind":"sweep","sweep":{"gamma":0.5,"configs":[{"d":4,"f":2}],"l":4}}`, http.StatusBadRequest},
		// Sweep jobs share /v1/sweep's worst-case x-axis bound: depth 20
		// could refine two points to ~2^21.
		{`{"kind":"sweep","sweep":{"gamma":0.5,"p_grid":[0.1,0.2],"configs":[{"d":1,"f":1}],"l":3,"adaptive":true,"max_depth":20,"tolerance":1e-12}}`, http.StatusBadRequest},
		// The fork panel's single-tree baseline shape (depth l, width
		// tree_width) is checked at submission, not when the job runs.
		{`{"kind":"sweep","sweep":{"gamma":0.5,"configs":[{"d":1,"f":1}],"l":9}}`, http.StatusBadRequest},
		{`{"kind":"sweep","sweep":{"gamma":0.5,"p_grid":[0.1],"configs":[{"d":1,"f":1}],"l":4,"tree_width":31}}`, http.StatusBadRequest},
		// Unknown fields are typos, not silently dropped options.
		{`{"kind":"analyze","analyze":{"p":0.3,"gama":0.5,"d":1,"f":1,"l":2}}`, http.StatusBadRequest},
	}
	for i, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/jobs", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("case %d: status %d (want %d): %s", i, resp.StatusCode, tc.code, data)
		}
	}
	// Unknown job id paths.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/jdeadbeef"},
		{http.MethodDelete, "/v1/jobs/jdeadbeef"},
		{http.MethodPost, "/v1/jobs/jdeadbeef/resume"},
		{http.MethodGet, "/v1/jobs/jdeadbeef/events"},
	} {
		resp, _ := httpDo(t, probe.method, ts.URL+probe.path, "")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id    string
	event string
	data  string
}

// readSSE parses events off an SSE stream until it closes or limit events
// arrived.
func readSSE(t *testing.T, r io.Reader, limit int) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				out = append(out, cur)
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"):
			// keep-alive comment
		}
	}
	return out
}

func TestJobEventsSSEWithReconnect(t *testing.T) {
	ts, _ := testServer(t)
	_, data := postJSON(t, ts.URL+"/v1/jobs",
		`{"kind":"analyze","analyze":{"p":0.3,"gamma":0.5,"d":2,"f":1,"l":3,"epsilon":1e-3}}`)
	var st jobs.Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, ts.URL, st.ID, jobs.StateDone)

	// First attach: the full replay ends with the terminal status event and
	// the server closes the stream.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type %q", ct)
	}
	evs := readSSE(t, resp.Body, 0)
	resp.Body.Close()
	if len(evs) < 3 {
		t.Fatalf("replay returned %d events", len(evs))
	}
	last := evs[len(evs)-1]
	if last.event != "status" || !strings.Contains(last.data, `"done"`) {
		t.Fatalf("stream did not end with the done status: %+v", last)
	}
	var progress int
	for _, ev := range evs {
		if ev.event == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Error("no progress events streamed")
	}

	// Reconnect with Last-Event-ID mid-stream: only the suffix replays.
	cut := evs[len(evs)/2]
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", cut.id)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tail := readSSE(t, resp2.Body, 0)
	resp2.Body.Close()
	cutID, _ := strconv.ParseInt(cut.id, 10, 64)
	if len(tail) != len(evs)-int(cutID)-1 {
		t.Errorf("reconnect replayed %d events after id %s, want %d", len(tail), cut.id, len(evs)-int(cutID)-1)
	}
	if firstID, _ := strconv.ParseInt(tail[0].id, 10, 64); firstID != cutID+1 {
		t.Errorf("replay starts at id %d, want %d", firstID, cutID+1)
	}
}

func TestJobCancelResumeEndpoints(t *testing.T) {
	// A blocking progress gate pins the job mid-search: after its first
	// binary-search step the solving goroutine blocks (the job stays
	// "running", with at least one checkpoint persisted) until the DELETE
	// below has landed. That makes cancel-while-running deterministic —
	// the job provably outlives the cancel — where waiting for the
	// "running" state and racing the solve's wall clock used to flake
	// with "409 job already finished" whenever the solve won.
	var gateOnce sync.Once
	running := make(chan struct{})
	release := make(chan struct{})
	gates := &jobs.Gates{Progress: func(id string, iter int) {
		gateOnce.Do(func() { close(running) })
		<-release // held open until the cancel landed; closed afterwards
	}}
	ts, _ := testServerGates(t, gates, "-jobs-workers", "1")
	_, data := postJSON(t, ts.URL+"/v1/jobs",
		`{"kind":"analyze","analyze":{"p":0.35,"gamma":0.5,"d":2,"f":2,"l":4,"epsilon":1e-9}}`)
	var st jobs.Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	<-running // the job is mid-search and blocked on the gate
	resp, data := httpDo(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, data)
	}
	close(release) // let the solve observe its canceled context
	canceled := waitJobState(t, ts.URL, st.ID, jobs.StateCanceled)
	if canceled.ErrorCode != "canceled" {
		t.Errorf("canceled job code %q", canceled.ErrorCode)
	}
	if !canceled.HasCheckpoint {
		t.Error("canceled mid-search job has no checkpoint")
	}
	resp, data = httpDo(t, http.MethodPost, ts.URL+"/v1/jobs/"+st.ID+"/resume", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %d %s", resp.StatusCode, data)
	}
	done := waitJobState(t, ts.URL, st.ID, jobs.StateDone)
	if done.Resumes != 1 {
		t.Errorf("Resumes = %d", done.Resumes)
	}
	// Cancel after done is a benign conflict with the documented
	// "already_finished" code; resume after done is "not_resumable".
	assertJobConflict(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, "already_finished")
	assertJobConflict(t, http.MethodPost, ts.URL+"/v1/jobs/"+st.ID+"/resume", "not_resumable")
}

// assertJobConflict expects a 409 carrying the given machine-readable
// error code.
func assertJobConflict(t *testing.T, method, url, wantCode string) {
	t.Helper()
	resp, data := httpDo(t, method, url, "")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("%s %s: status %d, want 409", method, url, resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("%s %s: bad error body %s: %v", method, url, data, err)
	}
	if body.Code != wantCode {
		t.Errorf("%s %s: code %q, want %q (error %q)", method, url, body.Code, wantCode, body.Error)
	}
}

func TestSweepSSEEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	body := `{"gamma":0.5,"pmax":0.1,"pstep":0.05,"configs":[{"d":1,"f":1}],"l":3,"epsilon":1e-3}`
	for _, tc := range []struct {
		name string
		req  func() *http.Request
	}{
		{"explicit sse endpoint", func() *http.Request {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep/sse", strings.NewReader(body))
			return req
		}},
		{"accept negotiation on stream", func() *http.Request {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep/stream", strings.NewReader(body))
			req.Header.Set("Accept", "text/event-stream")
			return req
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.DefaultClient.Do(tc.req())
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
				t.Fatalf("Content-Type %q", ct)
			}
			evs := readSSE(t, resp.Body, 0)
			// 3 grid points (0, 0.05, 0.1) then the summary.
			var points int
			for _, ev := range evs {
				if ev.event == "point" {
					points++
				}
			}
			if points != 3 {
				t.Errorf("%d point events, want 3", points)
			}
			last := evs[len(evs)-1]
			if last.event != "summary" {
				t.Fatalf("terminal event %q", last.event)
			}
			var sum summaryLine
			if err := json.Unmarshal([]byte(last.data), &sum); err != nil {
				t.Fatal(err)
			}
			if sum.Points != 3 || len(sum.AllSeries) == 0 {
				t.Errorf("summary: %+v", sum)
			}
		})
	}
}

// TestJobSweepDefaultConfigs: a sweep job that names no configs runs the
// server's bounded default curves, as /v1/sweep does, not the library's
// Figure2Configs with the 9.4M-state d=4 shape.
func TestJobSweepDefaultConfigs(t *testing.T) {
	ts, _ := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/jobs",
		`{"kind":"sweep","sweep":{"gamma":0.5,"p_grid":[0.1],"l":2,"tree_width":2,"epsilon":1e-2}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var st jobs.Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("%s: %v", data, err)
	}
	want := []jobs.SweepConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}, {Depth: 2, Forks: 2}}
	if st.Sweep == nil || !slices.Equal(st.Sweep.Configs, want) {
		t.Fatalf("submitted spec %+v, want configs %v", st.Sweep, want)
	}
	done := waitJobState(t, ts.URL, st.ID, jobs.StateDone)
	var names []string
	for _, s := range done.SweepResult.Series {
		names = append(names, s.Name)
	}
	if wantNames := []string{"honest", "single-tree(f=2)", "ours(d=1,f=1)", "ours(d=2,f=1)", "ours(d=2,f=2)"}; !slices.Equal(names, wantNames) {
		t.Errorf("job ran series %v, want %v", names, wantNames)
	}
}

func TestJobSweepEndpointMatchesSyncSweep(t *testing.T) {
	ts, _ := testServer(t)
	_, data := postJSON(t, ts.URL+"/v1/jobs",
		`{"kind":"sweep","sweep":{"gamma":0.5,"p_grid":[0,0.1],"configs":[{"d":1,"f":1}],"l":3,"epsilon":1e-3}}`)
	var st jobs.Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("%s: %v", data, err)
	}
	done := waitJobState(t, ts.URL, st.ID, jobs.StateDone)
	if done.SweepResult == nil {
		t.Fatal("sweep job has no result")
	}
	resp, syncData := postJSON(t, ts.URL+"/v1/sweep",
		`{"gamma":0.5,"pmin":0,"pmax":0.1,"pstep":0.1,"configs":[{"d":1,"f":1}],"l":3,"epsilon":1e-3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync sweep: %d", resp.StatusCode)
	}
	var sync sweepResponse
	if err := json.Unmarshal(syncData, &sync); err != nil {
		t.Fatal(err)
	}
	for _, series := range sync.Series {
		var match *jobs.SweepSeries
		for i := range done.SweepResult.Series {
			if done.SweepResult.Series[i].Name == series.Name {
				match = &done.SweepResult.Series[i]
			}
		}
		if match == nil {
			t.Errorf("job sweep missing series %q", series.Name)
			continue
		}
		for i, v := range series.Values {
			if math.Float64bits(match.Values[i]) != math.Float64bits(v) {
				t.Errorf("series %s point %d: job %v != sync %v", series.Name, i, match.Values[i], v)
			}
		}
	}
}

// TestJobsClientAgainstServer drives the jobs.Client end to end against a
// live server — the same path the analyze/sweep CLI -submit flags use.
func TestJobsClientAgainstServer(t *testing.T) {
	ts, _ := testServer(t)
	cl := &jobs.Client{BaseURL: ts.URL}
	ctx := context.Background()
	st, err := cl.Submit(ctx, jobs.Request{Kind: jobs.KindAnalyze, Analyze: &jobs.AnalyzeSpec{
		P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, Len: 3, Epsilon: 1e-3,
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var updates int
	done, err := cl.Wait(ctx, st.ID, 5*time.Millisecond, func(*jobs.Status) { updates++ })
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if done.State != jobs.StateDone || done.Result == nil {
		t.Fatalf("final: %+v", done)
	}
	if updates == 0 {
		t.Error("Wait reported no updates")
	}
	list, err := cl.List(ctx, jobs.Filter{Kind: jobs.KindAnalyze})
	if err != nil || len(list) != 1 {
		t.Fatalf("List: %d jobs, %v", len(list), err)
	}
	full, err := cl.Get(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Result.Strategy) == 0 {
		t.Error("client Get(include strategy) returned none")
	}
	if _, err := cl.Get(ctx, "jmissing", false); err == nil ||
		!strings.Contains(err.Error(), "no such job") {
		t.Errorf("Get missing: %v", err)
	}
}
