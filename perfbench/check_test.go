package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/selfishmining"
)

func TestAnalysisChecks(t *testing.T) {
	if err := checkBracket(0.3, 0.3+epsilon/2); err != nil {
		t.Errorf("a bracket within ε failed: %v", err)
	}
	if err := checkBracket(0.3, 0.3+2*epsilon); err == nil {
		t.Error("a bracket wider than ε passed")
	}
	if err := checkStrategy(0.3, 0.3-epsilon/2); err != nil {
		t.Errorf("a strategy within ε of the bound failed: %v", err)
	}
	for _, bad := range []float64{0.3 - 2*epsilon, math.NaN()} {
		if err := checkStrategy(0.3, bad); err == nil {
			t.Errorf("strategy revenue %v passed", bad)
		}
	}
}

func TestPanelCheck(t *testing.T) {
	x := []float64{0.1, 0.2, 0.3}
	honest := curve{"honest", x}
	if err := checkPanel("fork", 0.5, 4, x, []curve{honest, {"ours(d=1,f=1)", []float64{0.1, 0.21, 0.35}}}); err != nil {
		t.Errorf("a fork curve above honest failed: %v", err)
	}
	if err := checkPanel("fork", 0.5, 4, x, []curve{honest, {"ours(d=1,f=1)", []float64{0.1, 0.19, 0.35}}}); err == nil {
		t.Error("a fork curve below honest − ε passed")
	}
	// The single-tree baseline of a fork panel is a comparator, not an
	// attack curve, and may lie below honest.
	if err := checkPanel("fork", 0.5, 4, x, []curve{honest, {"ours(d=1,f=1)", x}, {"single-tree(f=5)", []float64{0, 0, 0}}}); err != nil {
		t.Errorf("a panel with a low single-tree baseline failed: %v", err)
	}
	exact := make([]float64, len(x))
	for i, p := range x {
		v, err := selfishmining.SingleTreeRevenue(p, 0.5, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		exact[i] = v
	}
	if err := checkPanel("singletree", 0.5, 0, x, []curve{honest, {"singletree(d=1,f=5)", exact}}); err != nil {
		t.Errorf("the exact singletree curve failed: %v", err)
	}
	corrupted := append([]float64(nil), exact...)
	corrupted[len(x)/2] += 2 * epsilon
	if err := checkPanel("singletree", 0.5, 0, x, []curve{honest, {"singletree(d=1,f=5)", corrupted}}); err == nil {
		t.Error("a corrupted singletree curve passed")
	}
}

// TestCorruptedAnswersAreCounted drives the serve-hot client loop against
// a server that corrupts every other answer by one bit: each corrupted
// answer must count as a failed operation and add no latency sample.
func TestCorruptedAnswersAreCounted(t *testing.T) {
	keys := hotKeys(1)
	det := determinism{}
	for i := range keys {
		det[i] = math.Float64bits(0.25)
	}
	var n atomic.Int64
	answer := func() analyzeAnswer {
		errev := 0.25
		if n.Add(1)%2 == 0 {
			errev = math.Nextafter(errev, 1)
		}
		return analyzeAnswer{ERRev: errev, ERRevUpper: errev + epsilon/2, StrategyERRev: &errev}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Requests []json.RawMessage `json:"requests"`
		}
		if r.URL.Path != "/v1/analyze/batch" {
			_ = json.NewEncoder(w).Encode(answer())
			return
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var b batchAnswer
		for range body.Requests {
			b.Results = append(b.Results, answer())
		}
		_ = json.NewEncoder(w).Encode(b)
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.hc.CloseIdleConnections()

	hc := &hotConn{stream: newHotStream(1, 0, keys)}
	hc.run(context.Background(), c, keys, det, nil, time.Now().Add(200*time.Millisecond))
	ph := hc.ph
	if ph.Attempted < 20 {
		t.Fatalf("only %d requests in 200ms", ph.Attempted)
	}
	if ph.Failed == 0 || ph.Failed == ph.Attempted {
		t.Fatalf("%d of %d requests counted failed, want some but not all", ph.Failed, ph.Attempted)
	}
	if len(ph.Lat) != ph.Attempted-ph.Failed {
		t.Fatalf("%d latency samples for %d good requests", len(ph.Lat), ph.Attempted-ph.Failed)
	}
}
