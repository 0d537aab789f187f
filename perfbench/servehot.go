package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"time"
)

// analyzeAnswer is the part of serve's analysis response the benchmark
// reads.
type analyzeAnswer struct {
	ERRev         float64  `json:"errev"`
	ERRevUpper    float64  `json:"errev_upper"`
	StrategyERRev *float64 `json:"strategy_errev"`
	Sweeps        int      `json:"sweeps"`
	Cached        bool     `json:"cached"`
	Coalesced     bool     `json:"coalesced"`
	DurationMs    float64  `json:"duration_ms"`
}

type batchAnswer struct {
	Results    []analyzeAnswer `json:"results"`
	DurationMs float64         `json:"duration_ms"`
}

// checkAnswer applies the analysis checks to one answer for key k.
func checkAnswer(k hotKey, a analyzeAnswer) error {
	if err := checkBracket(a.ERRev, a.ERRevUpper); err != nil {
		return err
	}
	if k.BoundOnly {
		return nil
	}
	if a.StrategyERRev == nil {
		return fmt.Errorf("full analysis of %+v has no strategy revenue", k)
	}
	return checkStrategy(a.ERRev, *a.StrategyERRev)
}

// checkHot checks every answer of one serve-hot request; repeats of a hot
// key must match the warm-up answer bit for bit.
func checkHot(req hotRequest, answers []analyzeAnswer, keys []hotKey, det determinism) error {
	if req.kind == reqFresh {
		return checkAnswer(req.fresh, answers[0])
	}
	if len(answers) != len(req.keys) {
		return fmt.Errorf("%d answers for %d requests", len(answers), len(req.keys))
	}
	for i, ki := range req.keys {
		if err := checkAnswer(keys[ki], answers[i]); err != nil {
			return err
		}
		if err := det.check(ki, answers[i].ERRev); err != nil {
			return err
		}
	}
	return nil
}

// hotConn is one of the two serve-hot connections and what it measured.
type hotConn struct {
	stream *hotStream
	ph     phase
	// Single-request samples for the per-layer metrics.
	cachedUs, solvedMs, handlerMs, overheadUs, sweeps []float64
	s4xx, s5xx                                        int
}

func (h *hotConn) run(ctx context.Context, c *client, keys []hotKey, det determinism, tr *tracer, deadline time.Time) {
	for time.Now().Before(deadline) {
		req := h.stream.next()
		t0 := time.Now()
		var code int
		var err error
		var answers []analyzeAnswer
		var handlerMs float64
		if req.kind == reqBatch {
			body := struct {
				Requests []hotKey `json:"requests"`
			}{}
			for _, ki := range req.keys {
				body.Requests = append(body.Requests, keys[ki])
			}
			var b batchAnswer
			code, err = c.do(ctx, http.MethodPost, "/v1/analyze/batch", body, &b)
			answers, handlerMs = b.Results, b.DurationMs
		} else {
			k := req.fresh
			if req.kind == reqHot {
				k = keys[req.keys[0]]
			}
			var a analyzeAnswer
			code, err = c.do(ctx, http.MethodPost, "/v1/analyze", k, &a)
			answers, handlerMs = []analyzeAnswer{a}, a.DurationMs
		}
		t1 := time.Now()
		h.ph.Attempted++
		countStatus(code, &h.s4xx, &h.s5xx)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d", code)
		}
		if err == nil {
			err = checkHot(req, answers, keys, det)
		}
		if err != nil {
			h.ph.fail(err)
			continue
		}
		lat := ms(t1.Sub(t0))
		h.ph.Lat = append(h.ph.Lat, lat)
		h.ph.Points += len(answers)
		// The server's own timing covers its handler and ends before the
		// response is written; it is placed at the end of the request.
		op := tr.begin(0, "op", t0)
		tr.add(op, "service.handler", t1.Add(-time.Duration(handlerMs*float64(time.Millisecond))), t1)
		tr.end(op, t1)
		if req.kind == reqBatch {
			continue
		}
		a := answers[0]
		h.handlerMs = append(h.handlerMs, a.DurationMs)
		h.overheadUs = append(h.overheadUs, (lat-a.DurationMs)*1000)
		switch {
		case a.Cached:
			h.cachedUs = append(h.cachedUs, a.DurationMs*1000)
		case !a.Coalesced:
			h.solvedMs = append(h.solvedMs, a.DurationMs)
			h.sweeps = append(h.sweeps, float64(a.Sweeps))
		}
	}
}

// measureServeHot is one serve-hot run against a fresh serve.
func measureServeHot(e *env, traced bool) (ph *phase, err error) {
	dir, err := os.MkdirTemp(e.workDir, "serve-hot-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, _, err := startServe(e, dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := srv.stop(); serr != nil && err == nil {
			ph, err = nil, serr
		}
	}()
	c := newClient(srv.base)
	defer c.hc.CloseIdleConnections()
	ctx := context.Background()

	keys := hotKeys(e.seed)
	det := determinism{}
	for i, k := range keys {
		var a analyzeAnswer
		code, err := c.do(ctx, http.MethodPost, "/v1/analyze", k, &a)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("warm-up of %+v: HTTP %d", k, code)
		}
		det[i] = math.Float64bits(a.ERRev)
	}
	var tr *tracer
	var before exposition
	if traced {
		tr = newTracer()
		if before, err = c.scrape(ctx); err != nil {
			return nil, err
		}
	}

	conns := []*hotConn{
		{stream: newHotStream(e.seed, 0, keys)},
		{stream: newHotStream(e.seed, 1, keys)},
	}
	start := time.Now()
	deadline := e.deadline(start)
	var wg sync.WaitGroup
	for _, hc := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc.run(ctx, c, keys, det, tr, deadline)
		}()
	}
	wg.Wait()
	ph = &phase{Elapsed: time.Since(start).Seconds()}
	if ph.PeakRSSMB, err = srv.vm("VmHWM"); err != nil {
		return nil, err
	}
	var cachedUs, solvedMs, handlerMs, overheadUs, sweeps []float64
	var s4xx, s5xx int
	for _, hc := range conns {
		ph.merge(&hc.ph)
		cachedUs = append(cachedUs, hc.cachedUs...)
		solvedMs = append(solvedMs, hc.solvedMs...)
		handlerMs = append(handlerMs, hc.handlerMs...)
		overheadUs = append(overheadUs, hc.overheadUs...)
		sweeps = append(sweeps, hc.sweeps...)
		s4xx += hc.s4xx
		s5xx += hc.s5xx
	}
	if traced {
		after, err := c.scrape(ctx)
		if err != nil {
			return nil, err
		}
		ph.Layer = registryLayer(before, after)
		ph.Layer["kernel.sweeps_per_point"] = mean(sweeps)
		ph.Layer["service.cached_us_p50"] = percentile(cachedUs, 50)
		ph.Layer["service.solved_ms_p50"] = percentile(solvedMs, 50)
		ph.Layer["service.handler_ms_p50"] = percentile(handlerMs, 50)
		ph.Layer["http.overhead_us_p50"] = percentile(overheadUs, 50)
		ph.Layer["http.status_4xx"] = float64(s4xx)
		ph.Layer["http.status_5xx"] = float64(s5xx)
		ph.Spans = tr.all()
	}
	return ph, nil
}
