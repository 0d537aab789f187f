package main

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/selfishmining"
)

// fuzzServer is a server with the default flags, enough for the request
// checks (they read only the configuration).
func fuzzServer(f *testing.F) *server {
	f.Helper()
	cfg, err := parseFlags(nil)
	if err != nil {
		f.Fatal(err)
	}
	return &server{cfg: cfg}
}

// FuzzSweepRequest drives the decode-and-check path of /v1/sweep and its
// streams. Property: a body is either rejected (the handlers answer 400) or
// every attack point it implies passes AttackParams.Validate, its worst
// case fits maxSweepXValues x-values and -max-states, its epsilon is
// finite and >= 0, SweepOptions.Normalize accepts the options, and a fork
// sweep's single-tree baseline shape passes the baseline's own check.
func FuzzSweepRequest(f *testing.F) {
	s := fuzzServer(f)
	for _, body := range []string{
		`{"gamma":0.5,"pmin":0.1,"pmax":0.3,"pstep":0.1,"configs":[{"d":1,"f":1}],"l":3,"tree_width":3,"epsilon":1e-3}`,
		`{"gamma":0.5,"pmin":0,"pmax":0.3,"pstep":0.1,"configs":[{"d":2,"f":1}],"l":3,"adaptive":true,"tolerance":1e-3,"max_depth":2}`,
		`{"model":"nakamoto","gamma":0,"pmin":0.2,"pmax":0.4,"pstep":0.2,"epsilon":1e-2}`,
		`{"model":"singletree","gamma":0.5,"pmax":1}`,
		`{"gamma":0.5}`,
		`{"gamma":0.5,"epsilon":NaN}`,
		`{"gamma":0.5,"configs":[{"d":1,"f":1}],"l":2,"epsilon":-1}`,
		`{"gamma":0.5,"pmin":0.1,"pmax":0.2,"pstep":0.1,"configs":[{"d":1,"f":1}],"l":3,"adaptive":true,"max_depth":20,"tolerance":1e-12}`,
		`{"gamma":0.5,"pstep":1e-300}`,
		`{"gamma":0.5,"tolerance":1e-3}`,
		`{"gamma":0.5,"configs":[{"d":4,"f":2}],"l":4}`,
		`{"gamma":0.5,"pmin":0.1,"pmax":0.1,"configs":[{"d":1,"f":1}],"l":2,"tree_width":31}`,
		`{"gamma":0.5,"pmin":0.1,"pmax":0.1,"configs":[{"d":1,"f":1}],"l":4,"tree_width":31,"timeout_ms":1}`,
		`{"gamma":0.5,"timeout_ms":-5}`,
		`{"gamma":1.5}`,
		`{"gama":0.5}`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		opts, timeoutMs, err := s.parseSweep(bytes.NewReader(body))
		if err != nil {
			return
		}
		if timeoutMs < 0 {
			t.Fatalf("accepted timeout_ms %d", timeoutMs)
		}
		if !(opts.Epsilon >= 0) || math.IsInf(opts.Epsilon, 0) {
			t.Fatalf("accepted epsilon %v", opts.Epsilon)
		}
		n := len(opts.PGrid)
		worst := float64(n)
		if opts.Adaptive {
			// Full refinement bisects each of the n−1 coarse cells down to
			// MaxDepth, unless MaxPoints caps the midpoints sooner.
			refined := float64(n-1) * (math.Exp2(float64(opts.MaxDepth)) - 1)
			if opts.MaxPoints > 0 {
				refined = min(refined, float64(opts.MaxPoints))
			}
			worst += refined
		}
		if n == 0 || worst > maxSweepXValues {
			t.Fatalf("accepted a sweep of %d grid points refining to up to %.0f x-values", n, worst)
		}
		for _, c := range opts.Configs {
			params := selfishmining.AttackParams{
				Model: opts.Model, Switching: opts.Gamma,
				Depth: c.Depth, Forks: c.Forks, MaxForkLen: opts.MaxForkLen,
			}
			for _, p := range opts.PGrid {
				params.Adversary = p
				if err := params.Validate(); err != nil {
					t.Fatalf("accepted point %v: %v", params, err)
				}
			}
			if states := params.NumStates(); states > s.cfg.maxStates {
				t.Fatalf("accepted config %+v with %d states", c, states)
			}
		}
		if err := opts.Normalize(); err != nil {
			t.Fatalf("the library refuses accepted options %+v: %v", opts, err)
		}
		if selfishmining.IsDefaultModel(opts.Model) {
			if err := baseline.ValidateSingleTreeShape(opts.MaxForkLen, opts.TreeWidth); err != nil {
				t.Fatalf("accepted a fork sweep whose single-tree baseline the baseline refuses: %v", err)
			}
		}
	})
}

// FuzzAnalyzeRequest drives the decode-and-check path of /v1/analyze.
// Property: a body is either rejected (the handler answers 400) or its
// point passes AttackParams.Validate, fits -max-states, and carries a
// finite epsilon >= 0 and a timeout_ms >= 0.
func FuzzAnalyzeRequest(f *testing.F) {
	s := fuzzServer(f)
	for _, body := range []string{
		`{"p":0.3,"gamma":0.5,"d":2,"f":2,"l":4}`,
		`{"model":"nakamoto","p":0.3,"gamma":0.5,"d":1,"f":1,"l":8,"epsilon":1e-2,"bound_only":true}`,
		`{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":2,"include_strategy":true,"timeout_ms":30000}`,
		`{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":2,"epsilon":NaN}`,
		`{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":2,"epsilon":-1}`,
		`{"p":0.3,"gamma":0.5,"d":1,"f":1,"l":2,"timeout_ms":-5}`,
		`{"p":1.5,"gamma":0.5,"d":1,"f":1,"l":2}`,
		`{"p":0.3,"gamma":0.5,"d":5,"f":3,"l":6}`,
		`{"model":"bogus","p":0.3,"gamma":0.5,"d":1,"f":1,"l":2}`,
		`{"p":0.3,"gama":0.5,"d":1,"f":1,"l":2}`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := s.parseAnalyze(bytes.NewReader(body))
		if err != nil {
			return
		}
		if req.TimeoutMs < 0 {
			t.Fatalf("accepted timeout_ms %d", req.TimeoutMs)
		}
		if !(req.Epsilon >= 0) || math.IsInf(req.Epsilon, 0) {
			t.Fatalf("accepted epsilon %v", req.Epsilon)
		}
		params := req.Params()
		if err := params.Validate(); err != nil {
			t.Fatalf("accepted point %v: %v", params, err)
		}
		if states := params.NumStates(); states > s.cfg.maxStates {
			t.Fatalf("accepted point %v with %d states", params, states)
		}
	})
}
