package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/selfishmining"
	"repro/selfishmining/jobs"
	"repro/selfishmining/obs"
)

func testServer(t *testing.T, flags ...string) (*httptest.Server, *selfishmining.Service) {
	t.Helper()
	return testServerGates(t, nil, flags...)
}

// testServerGates is testServer with deterministic job-lifecycle gates
// (jobs.Config.Gates) installed on the manager, for tests that must pin a
// job at an exact execution point.
func testServerGates(t *testing.T, gates *jobs.Gates, flags ...string) (*httptest.Server, *selfishmining.Service) {
	t.Helper()
	cfg, err := parseFlags(flags)
	if err != nil {
		t.Fatalf("parseFlags(%v): %v", flags, err)
	}
	svc := selfishmining.NewService(selfishmining.ServiceConfig{
		ResultCacheSize:    cfg.resultCache,
		StructureCacheSize: cfg.structureCache,
		WarmCacheSize:      cfg.warmCache,
		Workers:            cfg.workers,
		MaxConcurrent:      cfg.maxConcurrent,
	})
	mgr, err := jobs.New(svc, jobs.Config{
		Workers:    cfg.jobsWorkers,
		QueueLimit: cfg.jobsQueue,
		TTL:        cfg.jobsTTL,
		Gates:      gates,
	})
	if err != nil {
		t.Fatalf("jobs.New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Close(ctx)
	})
	ts := httptest.NewServer(newServer(svc, mgr, cfg, obs.Discard()))
	t.Cleanup(ts.Close)
	return ts, svc
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, buf.Bytes()
}

func TestAnalyzeEndpoint(t *testing.T) {
	ts, svc := testServer(t)
	body := `{"p":0.3,"gamma":0.5,"d":2,"f":1,"l":3,"epsilon":1e-3}`
	resp, data := postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		ERRev         float64  `json:"errev"`
		ChainQuality  float64  `json:"chain_quality"`
		StrategyERRev *float64 `json:"strategy_errev"`
		Cached        bool     `json:"cached"`
		NumStates     int      `json:"num_states"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad JSON %s: %v", data, err)
	}
	want, err := svc.AnalyzeContext(context.Background(), selfishmining.AttackParams{
		Adversary: 0.3, Switching: 0.5, Depth: 2, Forks: 1, MaxForkLen: 3,
	}, selfishmining.WithEpsilon(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.ERRev) != math.Float64bits(want.ERRev) {
		t.Errorf("served ERRev %v != direct %v", out.ERRev, want.ERRev)
	}
	if out.StrategyERRev == nil {
		t.Error("strategy_errev missing from full analysis")
	}
	if out.Cached {
		t.Error("first request reported cached")
	}
	if math.Abs(out.ChainQuality-(1-out.ERRev)) > 1e-12 {
		t.Errorf("chain_quality %v inconsistent with errev %v", out.ChainQuality, out.ERRev)
	}

	// The repeat must hit the cache.
	resp, data = postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, data)
	}
	var again struct {
		ERRev  float64 `json:"errev"`
		Cached bool    `json:"cached"`
	}
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeated request not served from cache")
	}
	if math.Float64bits(again.ERRev) != math.Float64bits(out.ERRev) {
		t.Errorf("cached ERRev %v != first %v", again.ERRev, out.ERRev)
	}
}

func TestAnalyzeEndpointBoundOnly(t *testing.T) {
	ts, _ := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/analyze",
		`{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":3,"epsilon":1e-3,"bound_only":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if strings.Contains(string(data), "strategy_errev") {
		t.Errorf("bound-only response carries strategy_errev: %s", data)
	}
}

func TestAnalyzeEndpointStrategy(t *testing.T) {
	ts, _ := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/analyze",
		`{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":2,"epsilon":1e-2,"include_strategy":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		NumStates int   `json:"num_states"`
		Strategy  []int `json:"strategy"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Strategy) != out.NumStates {
		t.Errorf("strategy has %d entries for %d states", len(out.Strategy), out.NumStates)
	}
}

func TestAnalyzeEndpointRejects(t *testing.T) {
	ts, _ := testServer(t, "-max-states", "1000")
	cases := []struct {
		name, body string
	}{
		{"bad json", `{"p":`},
		{"unknown field", `{"p":0.3,"gama":0.5,"d":1,"f":1,"l":2}`},
		{"invalid params", `{"p":1.5,"gamma":0.5,"d":1,"f":1,"l":2}`},
		{"too large", `{"p":0.3,"gamma":0.5,"d":3,"f":2,"l":4}`},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/analyze", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", tc.name, resp.StatusCode, data)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: status %d, want 405", resp.StatusCode)
	}
}

// TestSolveEndpointsRejectKernelField: the server has one value-iteration
// kernel and no "kernel" field. A body that still sends one — top-level,
// inside one batch entry, or inside a job spec — gets the strict decoder's
// 400 naming the field, never a silently ignored option.
func TestSolveEndpointsRejectKernelField(t *testing.T) {
	ts, _ := testServer(t)
	point := `{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":2,"kernel":"jacobi"}`
	panel := `{"gamma":0.5,"pmin":0.1,"pmax":0.3,"pstep":0.1,"configs":[{"d":1,"f":1}],"l":3,"tree_width":3,"epsilon":1e-3,"kernel":"jacobi"}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/analyze", point},
		{"/v1/analyze/batch", `{"requests":[{"p":0.2,"gamma":0.5,"d":1,"f":1,"l":2},` + point + `]}`},
		{"/v1/sweep", panel},
		{"/v1/sweep/stream", panel},
		{"/v1/jobs", `{"kind":"analyze","analyze":` + point + `}`},
	} {
		resp, data := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.path, resp.StatusCode, data)
			continue
		}
		var out struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &out); err != nil || !strings.Contains(out.Error, `"kernel"`) {
			t.Errorf("%s: error %q does not name the kernel field (%v)", tc.path, data, err)
		}
	}
}

func TestBatchEndpointDeduplicates(t *testing.T) {
	ts, svc := testServer(t)
	req := `{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":3,"epsilon":1e-3}`
	body := fmt.Sprintf(`{"requests":[%s,%s,%s]}`, req, req, req)
	resp, data := postJSON(t, ts.URL+"/v1/analyze/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Results []struct {
			ERRev float64 `json:"errev"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	for i := 1; i < 3; i++ {
		if math.Float64bits(out.Results[i].ERRev) != math.Float64bits(out.Results[0].ERRev) {
			t.Errorf("result %d ERRev %v != result 0 %v", i, out.Results[i].ERRev, out.Results[0].ERRev)
		}
	}
	if st := svc.Stats(); st.Solves != 1 {
		t.Errorf("Solves = %d for a batch of 3 identical requests, want 1", st.Solves)
	}
}

func TestBatchEndpointRejects(t *testing.T) {
	ts, _ := testServer(t, "-max-batch", "2")
	req := `{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":2}`
	for name, body := range map[string]string{
		"empty":         `{"requests":[]}`,
		"over limit":    fmt.Sprintf(`{"requests":[%s,%s,%s]}`, req, req, req),
		"invalid entry": `{"requests":[{"p":2,"gamma":0.5,"d":1,"f":1,"l":2}]}`,
		"mixed options": fmt.Sprintf(`{"requests":[%s,{"p":0.2,"gamma":0.5,"d":1,"f":1,"l":2,"bound_only":true}]}`, req),
	} {
		resp, data := postJSON(t, ts.URL+"/v1/analyze/batch", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", name, resp.StatusCode, data)
		}
	}
}

func TestSweepEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/sweep",
		`{"gamma":0.5,"pmin":0.1,"pmax":0.3,"pstep":0.1,"configs":[{"d":1,"f":1}],"l":3,"tree_width":3,"epsilon":1e-3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out sweepResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.X) != 3 {
		t.Errorf("x-grid has %d points, want 3", len(out.X))
	}
	if len(out.Series) != 3 { // honest, single-tree, ours(1,1)
		t.Fatalf("got %d series, want 3: %s", len(out.Series), data)
	}
	for _, series := range out.Series {
		if len(series.Values) != len(out.X) {
			t.Errorf("series %q has %d values for %d x", series.Name, len(series.Values), len(out.X))
		}
	}
	if !strings.HasPrefix(out.Series[2].Name, "ours(") {
		t.Errorf("unexpected series order: %v, %v, %v", out.Series[0].Name, out.Series[1].Name, out.Series[2].Name)
	}
}

func TestSweepEndpointRejects(t *testing.T) {
	ts, _ := testServer(t, "-max-states", "1000")
	for name, body := range map[string]string{
		"bad gamma":     `{"gamma":1.5}`,
		"bad grid":      `{"gamma":0.5,"pmin":0.4,"pmax":0.2}`,
		"negative step": `{"gamma":0.5,"pstep":-0.1}`,
		"tiny step":     `{"gamma":0.5,"pstep":1e-300}`,
		"large config":  `{"gamma":0.5,"configs":[{"d":3,"f":2}]}`,
	} {
		resp, data := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", name, resp.StatusCode, data)
		}
	}
}

func TestStatsAndHealthz(t *testing.T) {
	ts, _ := testServer(t)
	postJSON(t, ts.URL+"/v1/analyze", `{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":2,"epsilon":1e-2}`)
	postJSON(t, ts.URL+"/v1/analyze", `{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":2,"epsilon":1e-2}`)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st selfishmining.ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	resp.Body.Close()
	if st.Solves != 1 || st.Results.Hits != 1 {
		t.Errorf("stats after repeat: solves %d (want 1), hits %d (want 1)", st.Solves, st.Results.Hits)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestParseFlagsRejectsBadCombos(t *testing.T) {
	for _, args := range [][]string{
		{"-addr", ""},
		{"-workers", "-1"},
		{"-max-concurrent", "-2"},
		{"-max-states", "0"},
		{"-max-batch", "0"},
		{"-shutdown-timeout", "0s"},
		{"-no-such-flag"},
		{"stray-positional"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("args %v accepted, want non-nil error (non-zero exit)", args)
		}
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8080" || cfg.maxBatch != 1024 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
}

func TestModelsEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Default string                    `json:"default"`
		Models  []selfishmining.ModelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.Default != "fork" {
		t.Errorf("default model %q, want fork", out.Default)
	}
	seen := map[string]bool{}
	for _, m := range out.Models {
		seen[m.Name] = true
		if m.Description == "" {
			t.Errorf("family %q served without a description", m.Name)
		}
	}
	for _, want := range []string{"fork", "singletree", "nakamoto"} {
		if !seen[want] {
			t.Errorf("family %q missing from /v1/models", want)
		}
	}
}

func TestAnalyzeEndpointModelField(t *testing.T) {
	ts, svc := testServer(t)
	body := `{"model":"nakamoto","p":0.4,"gamma":0,"d":1,"f":1,"l":10,"epsilon":1e-3,"bound_only":true}`
	resp, data := postJSON(t, ts.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		ERRev     float64 `json:"errev"`
		NumStates int     `json:"num_states"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad JSON %s: %v", data, err)
	}
	want, err := svc.AnalyzeContext(context.Background(), selfishmining.AttackParams{
		Model:     "nakamoto",
		Adversary: 0.4, Switching: 0, Depth: 1, Forks: 1, MaxForkLen: 10,
	}, selfishmining.WithEpsilon(1e-3), selfishmining.WithBoundOnly())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.ERRev) != math.Float64bits(want.ERRev) {
		t.Errorf("served nakamoto ERRev %v != direct %v", out.ERRev, want.ERRev)
	}
	if out.NumStates != 11*11*3 {
		t.Errorf("num_states %d, want %d", out.NumStates, 11*11*3)
	}
}

func TestAnalyzeEndpointRejectsUnknownModel(t *testing.T) {
	ts, _ := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/analyze", `{"model":"bogus","p":0.3,"gamma":0.5,"d":2,"f":1,"l":3}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	for _, want := range []string{"bogus", "fork", "nakamoto", "singletree"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("error body %s missing %q (must list valid families)", data, want)
		}
	}
}

func TestSweepEndpointModelField(t *testing.T) {
	ts, _ := testServer(t)
	body := `{"model":"nakamoto","gamma":0,"pmin":0.2,"pmax":0.4,"pstep":0.2,"epsilon":1e-2}`
	resp, data := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Series []struct {
			Name string `json:"name"`
		} `json:"series"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad JSON %s: %v", data, err)
	}
	if len(out.Series) != 2 {
		t.Fatalf("got %d series, want honest + nakamoto default shape: %s", len(out.Series), data)
	}
	if !strings.HasPrefix(out.Series[1].Name, "nakamoto(") {
		t.Errorf("attack series %q not named after the family", out.Series[1].Name)
	}
}

func TestSweepEndpointRejectsUnknownModel(t *testing.T) {
	ts, _ := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/sweep", `{"model":"bogus","gamma":0.5}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	for _, want := range []string{"bogus", "fork", "nakamoto", "singletree"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("error body %s missing %q (must list valid families)", data, want)
		}
	}
}

func TestBatchEndpointMixedModels(t *testing.T) {
	ts, _ := testServer(t)
	body := `{"requests":[
		{"model":"nakamoto","p":0.3,"gamma":0.5,"d":1,"f":1,"l":8,"epsilon":1e-2,"bound_only":true},
		{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":3,"epsilon":1e-2,"bound_only":true}
	]}`
	resp, data := postJSON(t, ts.URL+"/v1/analyze/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Results []struct {
			Request struct {
				Model string `json:"model"`
			} `json:"request"`
			ERRev float64 `json:"errev"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad JSON %s: %v", data, err)
	}
	if len(out.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(out.Results))
	}
	if out.Results[0].Request.Model != "nakamoto" || out.Results[1].Request.Model != "" {
		t.Errorf("request echo lost the model field: %s", data)
	}
	if out.Results[0].ERRev == out.Results[1].ERRev {
		t.Errorf("mixed-model batch returned identical ERRev %v — family ignored?", out.Results[0].ERRev)
	}
}

// slowSweepBody is a panel large enough (hundreds of points at fine
// precision) to be reliably still in flight when a test interrupts it.
// The nakamoto family starts solving grid points immediately — no
// single-tree baseline series to compute first — so interruption tests
// observe in-flight work quickly even under -race.
const slowSweepBody = `{"model":"nakamoto","gamma":0.25,"pmin":0.05,"pmax":0.45,"pstep":0.0005,"l":30,"epsilon":1e-7}`

func TestAnalyzeEndpointTimeoutMs(t *testing.T) {
	ts, svc := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/analyze",
		`{"p":0.3,"gamma":0.5,"d":2,"f":2,"l":4,"epsilon":1e-7,"timeout_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
	var out struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad JSON %s: %v", data, err)
	}
	if out.Code != "deadline" {
		t.Errorf("code %q, want \"deadline\": %s", out.Code, data)
	}
	if st := svc.Stats(); st.DeadlineExceeded != 1 {
		t.Errorf("DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
}

func TestServerRequestTimeoutFlag(t *testing.T) {
	ts, _ := testServer(t, "-request-timeout", "1ms")
	resp, data := postJSON(t, ts.URL+"/v1/analyze",
		`{"p":0.3,"gamma":0.5,"d":2,"f":2,"l":4,"epsilon":1e-7}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 under -request-timeout 1ms: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), `"deadline"`) {
		t.Errorf("body %s missing deadline code", data)
	}
}

func TestAnalyzeEndpointRejectsNegativeTimeout(t *testing.T) {
	ts, _ := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/analyze",
		`{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":2,"timeout_ms":-5}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
}

// TestSweepStreamEndpoint: every grid point arrives as its own NDJSON
// line, followed by one summary whose series values match the streamed
// points bitwise.
func TestSweepStreamEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/sweep/stream",
		`{"gamma":0.5,"pmin":0.1,"pmax":0.3,"pstep":0.1,"configs":[{"d":1,"f":1}],"l":3,"tree_width":3,"epsilon":1e-3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 { // 3 grid points + summary
		t.Fatalf("got %d NDJSON lines, want 4: %s", len(lines), data)
	}
	// Parse shape covering both line kinds; pointers detect absent fields.
	type anyLine struct {
		Type      string       `json:"type"`
		Series    string       `json:"series"`
		PIndex    *int         `json:"p_index"`
		P         *float64     `json:"p"`
		ERRev     float64      `json:"errev"`
		Title     string       `json:"title"`
		X         []float64    `json:"x"`
		AllSeries []wireSeries `json:"all_series"`
		Points    int          `json:"points"`
	}
	points := map[float64]float64{}
	var summary anyLine
	for i, ln := range lines {
		var parsed anyLine
		if err := json.Unmarshal([]byte(ln), &parsed); err != nil {
			t.Fatalf("line %d is not JSON: %q: %v", i, ln, err)
		}
		switch parsed.Type {
		case "point":
			if i == len(lines)-1 {
				t.Fatalf("last line is a point, want summary: %q", ln)
			}
			if parsed.Series != "ours(d=1,f=1)" || parsed.PIndex == nil || parsed.P == nil {
				t.Errorf("point line missing series/p_index/p: %q", ln)
				continue
			}
			points[*parsed.P] = parsed.ERRev
		case "summary":
			summary = parsed
		default:
			t.Fatalf("unexpected line type %q: %q", parsed.Type, ln)
		}
	}
	if summary.Type != "summary" || summary.Points != 3 {
		t.Fatalf("summary missing or wrong point count: %+v", summary)
	}
	var attack *wireSeries
	for i := range summary.AllSeries {
		if summary.AllSeries[i].Name == "ours(d=1,f=1)" {
			attack = &summary.AllSeries[i]
		}
	}
	if attack == nil {
		t.Fatalf("summary lacks the attack series: %+v", summary.AllSeries)
	}
	for i, x := range summary.X {
		got, ok := points[x]
		if !ok {
			t.Errorf("grid point p=%v was never streamed", x)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(attack.Values[i]) {
			t.Errorf("p=%v: streamed errev %v != summary %v", x, got, attack.Values[i])
		}
	}
}

// TestSweepStreamClientDisconnectStopsWork: dropping the connection
// mid-stream cancels the request context, which stops the remaining grid
// work (surfacing as a canceled request in the service stats).
func TestSweepStreamClientDisconnectStopsWork(t *testing.T) {
	ts, svc := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep/stream",
		strings.NewReader(slowSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST stream: %v", err)
	}
	defer resp.Body.Close()
	// Read one streamed point so the sweep is provably in flight, then
	// hang up.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first stream line: %v", err)
	}
	cancel()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if st := svc.Stats(); st.Canceled > 0 {
			return // the server noticed the disconnect and stopped the sweep
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("server never recorded the canceled sweep after client disconnect")
}

// TestGracefulShutdownCancelsInflight is the shutdown-under-load satellite:
// a stop signal must cancel in-flight solves through the server's base
// context — the server exits promptly even though the running sweep had
// minutes of work left, instead of burning its -shutdown-timeout (or the
// whole solve) in the drain.
func TestGracefulShutdownCancelsInflight(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-shutdown-timeout", "30s"})
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(cfg, sig, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-serveErr:
		t.Fatalf("serve exited before listening: %v", err)
	}

	type result struct {
		status int
		err    error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/sweep", "application/json", strings.NewReader(slowSweepBody))
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		reqDone <- result{status: resp.StatusCode}
	}()

	// Wait until the sweep is genuinely in flight (SweepPoints is a
	// monotone counter, so the poll cannot miss the window between two
	// short point solves the way InFlight could).
	waitUntil := time.Now().Add(30 * time.Second)
	inFlight := false
	for time.Now().Before(waitUntil) {
		resp, err := http.Get("http://" + addr + "/v1/stats")
		if err == nil {
			var st selfishmining.ServiceStats
			if json.NewDecoder(resp.Body).Decode(&st) == nil && st.SweepPoints > 0 {
				inFlight = true
			}
			resp.Body.Close()
			if inFlight {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !inFlight {
		t.Fatal("sweep never became in-flight")
	}

	start := time.Now()
	sig <- syscall.SIGTERM
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve returned %v on graceful shutdown", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not return after the stop signal (in-flight solve not canceled?)")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("shutdown took %v; base-context cancellation should preempt the solve immediately", elapsed)
	}
	select {
	case res := <-reqDone:
		// The interrupted request must have terminated promptly — either
		// with the 499 cancellation status or a torn connection.
		if res.err == nil && res.status != statusClientClosedRequest {
			t.Errorf("in-flight request answered %d, want %d (canceled)", res.status, statusClientClosedRequest)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never terminated after shutdown")
	}
}

// TestSweepStreamZeroPointFields: the p=0 grid point is a legitimate zero
// everywhere (p, errev, sweeps) — its NDJSON line must still carry every
// field so schema-checking consumers can tell "zero" from "absent".
func TestSweepStreamZeroPointFields(t *testing.T) {
	ts, _ := testServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/sweep/stream",
		`{"gamma":0.5,"pmin":0,"pmax":0.1,"pstep":0.1,"configs":[{"d":1,"f":1}],"l":3,"epsilon":1e-2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var zeroLine string
	for _, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.Contains(ln, `"type":"point"`) && strings.Contains(ln, `"p_index":0`) {
			zeroLine = ln
		}
	}
	if zeroLine == "" {
		t.Fatalf("p=0 point line missing from stream: %s", data)
	}
	for _, want := range []string{`"p":0`, `"errev":0`, `"sweeps":0`, `"series":"ours(d=1,f=1)"`} {
		if !strings.Contains(zeroLine, want) {
			t.Errorf("p=0 point line %q missing %s", zeroLine, want)
		}
	}
}

// TestSweepEndpointBadGammaIs400: sweep validation failures are client
// errors — gamma outside [0,1] must answer 400, not fall through to the
// solver-error classification.
func TestSweepEndpointBadGammaIs400(t *testing.T) {
	ts, _ := testServer(t)
	for _, path := range []string{"/v1/sweep", "/v1/sweep/stream"} {
		resp, data := postJSON(t, ts.URL+path, `{"gamma":1.5,"configs":[{"d":1,"f":1}],"l":3}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d for gamma=1.5, want 400: %s", path, resp.StatusCode, data)
		}
	}
}
