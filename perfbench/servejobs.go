package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/selfishmining"
	"repro/selfishmining/jobs"
)

// The serve-jobs load: an open loop of jobRate submissions per second.
const (
	jobRate       = 20
	jobPoll       = 20 * time.Millisecond
	jobListEvery  = 500 * time.Millisecond
	jobDrain      = 60 * time.Second // how long jobs may take to finish after the last submission
	overloadBurst = 640              // 10× serve-jobs' -jobs-queue
	overloadQueue = 64
)

// jobRun is one submitted job as the client saw it.
type jobRun struct {
	idx       int
	req       jobs.Request
	id        string
	due, seen time.Time
	st        *jobs.Status
}

// measureServeJobs is one serve-jobs run against a fresh serve with a
// fresh job directory.
func measureServeJobs(e *env, traced bool) (ph *phase, err error) {
	dir, err := os.MkdirTemp(e.workDir, "serve-jobs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, _, err := startServe(e, dir, jobsFlags(filepath.Join(dir, "jobs"))...)
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
	reqs := jobInputs(e.seed, jobRate*e.seconds)

	var tr *tracer
	var before exposition
	if traced {
		tr = newTracer()
		if before, err = c.scrape(ctx); err != nil {
			return nil, err
		}
	}
	ph = &phase{Extra: map[string]float64{}}
	var s4xx, s5xx int
	t0 := time.Now().Add(50 * time.Millisecond)
	live := make(chan *jobRun, len(reqs)) // one send per job, never blocks
	sub := &jobSubmitter{c: c, reqs: reqs, t0: t0, live: live}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sub.run(ctx)
	}()
	done, pollErr := pollJobs(ctx, c, live, &s4xx, &s5xx)
	wg.Wait()
	if pollErr != nil {
		return nil, pollErr
	}
	if sub.err != nil {
		return nil, sub.err
	}
	s4xx += sub.s4xx
	s5xx += sub.s5xx
	ph.merge(&sub.ph)

	var after exposition
	if traced {
		if after, err = c.scrape(ctx); err != nil {
			return nil, err
		}
	}
	var last time.Time
	var queueMs, runMs, sweeps []float64
	resolver := selfishmining.NewService(selfishmining.ServiceConfig{})
	analyzed := 0
	for _, j := range done {
		ph.Attempted++
		if j.seen.After(last) {
			last = j.seen
		}
		points, err := checkJob(j)
		if err == nil && j.req.Kind == jobs.KindAnalyze {
			// Re-solve every tenth analyze job in-process: the served
			// ERRev must match a fresh solve bit for bit.
			if analyzed%10 == 0 {
				err = resolve(ctx, resolver, j)
			}
			analyzed++
		}
		if err != nil {
			ph.fail(fmt.Errorf("job %d (%s): %w", j.idx, j.req.Kind, err))
			continue
		}
		ph.Lat = append(ph.Lat, ms(j.seen.Sub(j.due)))
		ph.Points += points
		st := j.st
		queueMs = append(queueMs, ms(st.StartedAt.Sub(st.SubmittedAt)))
		runMs = append(runMs, ms(st.FinishedAt.Sub(*st.StartedAt)))
		if st.Result != nil {
			sweeps = append(sweeps, float64(st.Result.Sweeps))
		}
		op := tr.begin(0, "op", j.due)
		tr.add(op, "jobs.queue", st.SubmittedAt, *st.StartedAt)
		tr.add(op, "jobs.run", *st.StartedAt, *st.FinishedAt)
		tr.end(op, j.seen)
	}
	ph.Elapsed = last.Sub(t0).Seconds()
	if ph.PeakRSSMB, err = srv.vm("VmHWM"); err != nil {
		return nil, err
	}
	ph.Extra["loadgen.late_ms_p99"] = percentile(sub.lateMs, 99)
	if err := overload(ctx, c, srv, reqs, ph); err != nil {
		return nil, fmt.Errorf("overload probe: %w", err)
	}
	if traced {
		ph.Layer = registryLayer(before, after)
		ph.Layer["kernel.sweeps_per_point"] = mean(sweeps)
		ph.Layer["jobs.queue_wait_ms_p50"] = percentile(queueMs, 50)
		ph.Layer["jobs.queue_wait_ms_p90"] = percentile(queueMs, 90)
		ph.Layer["jobs.run_ms_p50"] = percentile(runMs, 50)
		ph.Layer["http.status_4xx"] = float64(s4xx)
		ph.Layer["http.status_5xx"] = float64(s5xx)
		ph.Spans = tr.all()
	}
	return ph, nil
}

// jobSubmitter submits the job stream on schedule over one connection,
// listing the jobs every jobListEvery in between. Submissions serve refuses
// count as failed operations.
type jobSubmitter struct {
	c    *client
	reqs []jobs.Request
	t0   time.Time
	live chan<- *jobRun

	ph         phase
	lateMs     []float64
	s4xx, s5xx int
	err        error
}

func (s *jobSubmitter) run(ctx context.Context) {
	defer close(s.live)
	nextList := s.t0.Add(jobListEvery / 2)
	for i, req := range s.reqs {
		due := s.t0.Add(time.Duration(i) * time.Second / jobRate)
		for !nextList.After(due) {
			time.Sleep(time.Until(nextList))
			code, err := s.c.do(ctx, http.MethodGet, "/v1/jobs?limit=50", nil, nil)
			if err != nil {
				s.err = fmt.Errorf("listing jobs: %w", err)
				return
			}
			countStatus(code, &s.s4xx, &s.s5xx)
			nextList = nextList.Add(jobListEvery)
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		var st jobs.Status
		code, err := s.c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
		if err != nil {
			s.err = fmt.Errorf("submitting job %d: %w", i, err)
			return
		}
		s.lateMs = append(s.lateMs, ms(sent.Sub(due)))
		countStatus(code, &s.s4xx, &s.s5xx)
		if code != http.StatusAccepted {
			s.ph.Attempted++
			s.ph.fail(fmt.Errorf("job %d refused: HTTP %d", i, code))
			continue
		}
		s.live <- &jobRun{idx: i, req: req, id: st.ID, due: due}
	}
}

// pollJobs polls every live job each jobPoll until it reaches a terminal
// state, over the second connection, and returns them all; jobs still
// running jobDrain after the last submission are returned unfinished.
// Each job is polled on its own grid, offset from its due time by a share
// of jobPoll that varies evenly over the jobs, so the wait for the next
// poll spreads the same way in every run instead of depending on where a
// shared ticker happened to start.
func pollJobs(ctx context.Context, c *client, live <-chan *jobRun, s4xx, s5xx *int) ([]*jobRun, error) {
	type polled struct {
		j    *jobRun
		next time.Time
	}
	var pending []*polled
	var done []*jobRun
	in := live
	var drainBy time.Time
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for in != nil || len(pending) > 0 {
		if in == nil && time.Now().After(drainBy) {
			break
		}
		var first *polled
		for _, p := range pending {
			if first == nil || p.next.Before(first.next) {
				first = p
			}
		}
		wait := time.Hour
		if first != nil {
			wait = time.Until(first.next)
		}
		if wait > 0 {
			timer.Reset(wait)
			select {
			case j, ok := <-in:
				if !ok {
					in = nil
					drainBy = time.Now().Add(jobDrain)
					continue
				}
				offset := time.Duration(frac(float64(j.idx)*r1) * float64(jobPoll))
				pending = append(pending, &polled{j: j, next: j.due.Add(offset)})
				continue
			case <-timer.C:
			}
		}
		var st jobs.Status
		code, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+first.j.id, nil, &st)
		if err != nil {
			return nil, fmt.Errorf("polling job %d: %w", first.j.idx, err)
		}
		countStatus(code, s4xx, s5xx)
		now := time.Now()
		if code == http.StatusOK && st.State.Terminal() {
			first.j.seen, first.j.st = now, &st
			done = append(done, first.j)
			pending = slices.DeleteFunc(pending, func(p *polled) bool { return p == first })
			continue
		}
		for !first.next.After(now) {
			first.next = first.next.Add(jobPoll)
		}
	}
	for _, p := range pending {
		done = append(done, p.j)
	}
	return done, nil
}

// checkJob checks a finished job's output and returns its certified points.
func checkJob(j *jobRun) (int, error) {
	st := j.st
	if st == nil {
		return 0, fmt.Errorf("not finished %v after the last submission", jobDrain)
	}
	if st.State != jobs.StateDone {
		return 0, fmt.Errorf("ended %s: %s", st.State, st.Error)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		return 0, fmt.Errorf("done without start and finish times")
	}
	switch j.req.Kind {
	case jobs.KindAnalyze:
		r := st.Result
		if r == nil {
			return 0, fmt.Errorf("done without a result")
		}
		if err := checkBracket(r.ERRev, r.ERRevUpper); err != nil {
			return 0, err
		}
		if r.StrategyERRev == nil {
			return 0, fmt.Errorf("full analysis without a strategy revenue")
		}
		return 1, checkStrategy(r.ERRev, *r.StrategyERRev)
	default:
		r := st.SweepResult
		if r == nil {
			return 0, fmt.Errorf("done without a panel")
		}
		var curves []curve
		for _, s := range r.Series {
			curves = append(curves, curve{s.Name, s.Values})
		}
		if err := checkPanel(j.req.Sweep.Model, j.req.Sweep.Gamma, j.req.Sweep.Len, r.X, curves); err != nil {
			return 0, err
		}
		return len(r.X) * len(j.req.Sweep.Configs), nil
	}
}

// resolve re-solves an analyze job on a fresh in-process Service and
// requires the served ERRev bit for bit.
func resolve(ctx context.Context, svc *selfishmining.Service, j *jobRun) error {
	a, err := svc.AnalyzeContext(ctx, j.req.Analyze.Params())
	if err != nil {
		return fmt.Errorf("re-solving: %w", err)
	}
	if got := j.st.Result.ERRev; math.Float64bits(got) != math.Float64bits(a.ERRev) {
		return fmt.Errorf("served ERRev %v, a fresh solve gives %v", got, a.ERRev)
	}
	return nil
}

// overload bursts overloadBurst analyze submissions back to back while the
// second connection scrapes jobs_queue_depth from /metrics. It runs after
// peak_rss_mb is read and outside the failure count; a 5xx, an answer other
// than 202 or 429, or a queue deeper than -jobs-queue is a violation.
func overload(ctx context.Context, c *client, srv *server, reqs []jobs.Request, ph *phase) error {
	// Analyze jobs of the stream, each moved to a point no job has solved
	// so that every accepted one costs a solve instead of a cache hit.
	var analyze []*jobs.AnalyzeSpec
	for _, r := range reqs {
		if r.Kind == jobs.KindAnalyze {
			analyze = append(analyze, r.Analyze)
		}
	}
	burst := make([]jobs.Request, overloadBurst)
	for i := range burst {
		spec := *analyze[i%len(analyze)]
		spec.P += float64(i+1) * 1e-9
		burst[i] = jobs.Request{Kind: jobs.KindAnalyze, Analyze: &spec}
	}
	rssBefore, err := srv.vm("VmRSS")
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var maxDepth float64
	var scrapeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ex, err := c.scrape(ctx)
			if err != nil {
				scrapeErr = err
				return
			}
			maxDepth = max(maxDepth, ex.max("jobs_queue_depth"))
		}
	}()
	var refused, s5xx, other int
	for _, req := range burst {
		code, err := c.do(ctx, http.MethodPost, "/v1/jobs", req, nil)
		if err != nil {
			close(stop)
			wg.Wait()
			return err
		}
		switch {
		case code == http.StatusTooManyRequests:
			refused++
		case code >= 500:
			s5xx++
		case code != http.StatusAccepted:
			other++
		}
	}
	close(stop)
	wg.Wait()
	if scrapeErr != nil {
		return scrapeErr
	}
	rssAfter, err := srv.vm("VmRSS")
	if err != nil {
		return err
	}
	ph.Extra["overload.refused_share"] = float64(refused) / overloadBurst
	ph.Extra["overload.status_5xx"] = float64(s5xx)
	ph.Extra["overload.max_queue_depth"] = maxDepth
	ph.Extra["overload.rss_growth_mb"] = rssAfter - rssBefore
	if s5xx > 0 || other > 0 {
		ph.violate(fmt.Errorf("overload: %d answers 5xx and %d neither 202 nor 429", s5xx, other))
	}
	if maxDepth > overloadQueue {
		ph.violate(fmt.Errorf("overload: queue depth %v beyond -jobs-queue %d", maxDepth, overloadQueue))
	}
	return nil
}
