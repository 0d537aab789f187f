// Command perfbench is the repository's end-to-end benchmark. It generates
// each workload's inputs from a seed, drives them through the public entry
// points — the selfishmining library, and the real cmd/serve binary over
// loopback — checks every output, and prints the end-to-end metrics. A
// traced run replays the same inputs with spans recorded around the calls
// into each layer and prints the per-layer metrics instead.
//
// Usage, from the repository root (run.sh builds this command and
// cmd/serve into .bench_build/ first):
//
//	bash perfbench/run.sh -workload <name>|all [-seed 1] [-seconds 20] [-trace 0|1] [-o out.json]
//
// Flags:
//
//	-workload   point-fork, panels, serve-hot, serve-jobs, or all
//	-seed       input seed (default 1); the same seed gives the same inputs
//	-seconds    how long one run measures (default 20)
//	-trace      0: measure the end-to-end metrics. 1: run the workload
//	            untraced and then traced, half the seconds each, run the
//	            layer probes, print the per-layer metrics and write the
//	            spans to <work-dir>/spans-<workload>-seed<seed>.json
//	-o          also write the final JSON object to this file
//	-serve-bin  the cmd/serve binary (default .bench_build/serve)
//	-work-dir   scratch directory for job stores, logs and spans (default .bench_build)
//
// Every metric is printed as a line "workload metric value unit". The last
// line of standard output is one JSON object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics, or with -trace 1 the
// per-layer ones. A failed output check makes the command exit 1.
//
// # Workloads
//
// Each library workload runs in a child process of its own, so memory is
// per workload; the serve workloads start cmd/serve with default flags plus
// the ones named below. All load comes from this one process over at most
// two connections or goroutines.
//
//   - point-fork: closed loop, one caller on one core (GOMAXPROCS=1), cold
//     full analyses through plain selfishmining.AnalyzeContext of the fork
//     model d=2 f=2 l=4 (3 750 states), p in [0.02, 0.35], γ in {0, .25,
//     .5, .75, 1}. The paper's headline query: compile, bisection and the
//     generic solve backend, with no cache, batching or HTTP. One shape
//     only, because mixing families put the median in a gap between their
//     costs.
//   - panels: closed loop, one caller, plain selfishmining.SweepContext
//     panels with default options, cycling nakamoto, singletree, fork
//     {1x1,2x1,2x2} l=4, adaptive fork 2x2, fork 2x2 l=5 and a two-point
//     fork 3x2 l=4 (187 500 states) panel; γ and a p-grid offset come from
//     the seed. The kernel, sweep scheduler, warm starts and batch lanes do
//     the work here, and the generic backend none. A run ends on a cycle
//     boundary so every run measures the same mix.
//   - serve-hot: closed loop, two connections, against `serve`: 85%
//     /v1/analyze over 48 hot keys picked Zipf(1.1), 10% fresh bound-only
//     points next to a hot fork key, 5% /v1/analyze/batch of 8 with half
//     duplicates, after a warm-up that requests every hot key once. Every
//     seed gives the key shapes the same popularity. The HTTP layer and the
//     Service cache and coalescing do the work and the kernel little.
//   - serve-jobs: open loop, 20 jobs/s, against `serve -jobs-dir <tmp>
//     -jobs-queue 64`: 25% sweep jobs that checkpoint to disk per point,
//     75% full analyze jobs. The client polls each live job every 20 ms and
//     lists /v1/jobs?limit=50 every 500 ms; latency runs from when a job
//     was due to when the client sees it done. The job queue and store
//     writes do the work. After the timed phase an overload probe bursts
//     640 submissions (10× the queue) and reports the overload.* lines.
//
// # End-to-end metrics
//
//	p50_ms        median operation latency (analysis, panel, HTTP request, job)
//	tail_ms       the workload's tail percentile of the same: the highest
//	              with at least ten samples beyond it in a run — p80
//	              point-fork, p75 panels, p99 serve-hot, p90 serve-jobs
//	ops_per_s     completed operations per second
//	points_per_s  certified attack-curve points returned per second
//	setup_s       median of 11 cold starts: exec to ready for the library
//	              child, exec to the first 200 on /readyz (polled every
//	              1 ms) for serve
//	peak_rss_mb   VmHWM of the process doing the work (the child, or serve)
//
// Failed, refused and wrong-output operations are not timed; they count in
// "failed" against "attempted".
//
// # Per-layer metrics
//
// Probes run in every traced run on fixed shapes (fork-d2f2l4,
// fork-d2f2l5, fork-d3f2l4, nakamoto-d1f1l20, singletree-d1f5l4):
//
//	kernel.ns_per_transition.<shape>  one single-threaded compiled sweep
//	kernel.computed_gbps.<shape>      bytes a sweep must move, computed from
//	                                  NumStates and NumTransitions, per second
//	kernel.bw_fraction.<shape>        computed_gbps over mem.triad_gbps
//	families.compile_ms.<shape>       families.Compile, median of 3
//	mem.triad_gbps, mem.triad_array_mb  single-threaded triad over three
//	                                  arrays together ≥ 4× the last-level cache
//	jobs.store_put_us_p50, jobs.store_puts_per_job, jobs.store_put_kb_p50
//	                                  the serve-jobs job stream replayed
//	                                  through an in-process jobs.Manager over
//	                                  a timing wrapper around DiskStore
//
// The rest come from the traced run of the workload itself, from the
// program's own counters (/metrics, or the in-process registry) or from the
// benchmark's spans and the responses; a layer the workload never enters
// reports 0:
//
//	analysis.steps_per_point, analysis.sweeps_per_step, solve.generic_time_share
//	kernel.sweeps_per_point, analysis.step_ms_p50 (WithProgress intervals)
//	sweep.point_ms_p50 (intervals between OnPoint calls), sweep.lanes_per_group,
//	sweep.solo_point_share, sweep.refined_point_share, sweep.warm_hit_ratio
//	service.cached_share, service.coalesced_share, service.solves_per_request,
//	service.cached_us_p50, service.solved_ms_p50, service.handler_ms_p50
//	http.overhead_us_p50 (client latency minus duration_ms), http.status_4xx,
//	http.status_5xx
//	jobs.queue_wait_ms_p50, jobs.queue_wait_ms_p90, jobs.run_ms_p50
//	loadgen.late_ms_p99 (open-loop send lateness)
//	overload.refused_share, overload.status_5xx, overload.max_queue_depth,
//	overload.rss_growth_mb
//	trace.overhead_pct (traced over untraced p50_ms), trace.op_self_share
//	(share of operation time outside the inner layer's spans)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// coldStarts is how many cold starts one run times for setup_s.
const coldStarts = 11

// env is what every workload needs to know about the run.
type env struct {
	seed     int64
	seconds  int
	serveBin string
	workDir  string
	self     string    // this executable, for child processes
	log      io.Writer // progress and diagnostics
}

func (e *env) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(e.seconds) * time.Second)
}

// workload is one benchmark workload: how to measure one run of it and how
// to time one cold start.
type workload struct {
	name    string
	tailPct float64
	measure func(e *env, traced bool) (*phase, error)
	start   func(e *env) (time.Duration, error)
}

var workloads = []workload{
	{"point-fork", 80, childMeasure("point-fork"), childStart("point-fork")},
	{"panels", 75, childMeasure("panels"), childStart("panels")},
	{"serve-hot", 99, measureServeHot, serveStart(false)},
	{"serve-jobs", 90, measureServeJobs, serveStart(true)},
}

// phase is one measured run of a workload. Library children return it to
// the parent as JSON.
type phase struct {
	// Lat holds the latency of every completed operation, in ms.
	Lat []float64 `json:"lat_ms"`
	// Points counts certified attack-curve points returned.
	Points    int     `json:"points"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Elapsed   float64 `json:"elapsed_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Layer holds the workload's per-layer metrics (traced runs only).
	Layer map[string]float64 `json:"layer,omitempty"`
	// Extra holds metrics printed as text lines only (open-loop lateness,
	// the overload probe); traced runs also report them per layer.
	Extra    map[string]float64 `json:"extra,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	Problems []string           `json:"problems,omitempty"`
	// Violations are failed checks outside the operations: the overload
	// probe's limits.
	Violations []string `json:"violations,omitempty"`
}

// correct reports whether every check of the run passed.
func (p *phase) correct() bool { return p.Failed == 0 && len(p.Violations) == 0 }

// violate records a failed check that is not an operation's.
func (p *phase) violate(err error) { p.Violations = append(p.Violations, err.Error()) }

// fail counts a failed operation, keeping the first few reasons.
func (p *phase) fail(err error) {
	p.Failed++
	if len(p.Problems) < 10 {
		p.Problems = append(p.Problems, err.Error())
	}
}

// merge folds another phase's counts and samples into p.
func (p *phase) merge(q *phase) {
	p.Lat = append(p.Lat, q.Lat...)
	p.Points += q.Points
	p.Attempted += q.Attempted
	p.Failed += q.Failed
	for _, pr := range q.Problems {
		if len(p.Problems) < 10 {
			p.Problems = append(p.Problems, pr)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics, as in BENCHMARK.json.
var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"points_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the per-layer metrics, as in BENCHMARK.json.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range probeShapes {
		defs = append(defs,
			metricDef{"kernel.ns_per_transition." + s.name, "ns"},
			metricDef{"kernel.computed_gbps." + s.name, "GB/s"},
			metricDef{"kernel.bw_fraction." + s.name, "ratio"},
			metricDef{"families.compile_ms." + s.name, "ms"})
	}
	return append(defs, []metricDef{
		{"mem.triad_gbps", "GB/s"},
		{"mem.triad_array_mb", "MiB"},
		{"jobs.store_put_us_p50", "us"},
		{"jobs.store_puts_per_job", "count"},
		{"jobs.store_put_kb_p50", "KiB"},
		{"analysis.steps_per_point", "count"},
		{"analysis.sweeps_per_step", "count"},
		{"analysis.step_ms_p50", "ms"},
		{"kernel.sweeps_per_point", "count"},
		{"solve.generic_time_share", "ratio"},
		{"sweep.point_ms_p50", "ms"},
		{"sweep.lanes_per_group", "count"},
		{"sweep.solo_point_share", "ratio"},
		{"sweep.refined_point_share", "ratio"},
		{"sweep.warm_hit_ratio", "ratio"},
		{"service.cached_share", "ratio"},
		{"service.coalesced_share", "ratio"},
		{"service.solves_per_request", "count"},
		{"service.cached_us_p50", "us"},
		{"service.solved_ms_p50", "ms"},
		{"service.handler_ms_p50", "ms"},
		{"http.overhead_us_p50", "us"},
		{"http.status_4xx", "count"},
		{"http.status_5xx", "count"},
		{"jobs.queue_wait_ms_p50", "ms"},
		{"jobs.queue_wait_ms_p90", "ms"},
		{"jobs.run_ms_p50", "ms"},
		{"loadgen.late_ms_p99", "ms"},
		{"overload.refused_share", "ratio"},
		{"overload.status_5xx", "count"},
		{"overload.max_queue_depth", "count"},
		{"overload.rss_growth_mb", "MiB"},
		{"trace.overhead_pct", "%"},
		{"trace.op_self_share", "ratio"},
	}...)
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "point-fork, panels, serve-hot, serve-jobs, or all")
	e := &env{log: stderr}
	fs.Int64Var(&e.seed, "seed", 1, "input seed")
	fs.IntVar(&e.seconds, "seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("o", "", "also write the final JSON object to this file")
	fs.StringVar(&e.serveBin, "serve-bin", filepath.Join(".bench_build", "serve"), "the cmd/serve binary")
	fs.StringVar(&e.workDir, "work-dir", ".bench_build", "scratch directory for job stores, logs and spans")
	child := fs.String("child", "", "internal: run a library workload (or the probes) in this process")
	ready := fs.Bool("ready", false, "internal: with -child, exit once set up")
	traced := fs.Bool("traced", false, "internal: with -child, record spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if e.seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: -seconds %d: need >= 1\n", e.seconds)
		return 2
	}
	if *child != "" {
		if err := runChild(e, *child, *ready, *traced, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace %d: need 0 or 1\n", *trace)
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: -workload %q: need point-fork, panels, serve-hot, serve-jobs, or all\n", *name)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e.self = self
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		var res *result
		if *trace == 1 {
			res, err = runTraced(e, w, stdout)
		} else {
			res, err = runMeasured(e, w, stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if len(selected) == 1 {
			total = *res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// runMeasured times the cold starts and one untraced run, and reports the
// end-to-end metrics.
func runMeasured(e *env, w workload, stdout io.Writer) (*result, error) {
	var starts []float64
	for i := 0; i < coldStarts; i++ {
		d, err := w.start(e)
		if err != nil {
			return nil, fmt.Errorf("cold start: %w", err)
		}
		starts = append(starts, d.Seconds())
	}
	ph, err := w.measure(e, false)
	if err != nil {
		return nil, err
	}
	reportProblems(e, w.name, ph)
	if beyond := float64(len(ph.Lat)) * (1 - w.tailPct/100); beyond < 10 {
		fmt.Fprintf(e.log, "perfbench: %s: only %.1f samples beyond p%g of %d; tail_ms is unreliable\n",
			w.name, beyond, w.tailPct, len(ph.Lat))
	}
	m := withUnits(endToEnd, map[string]float64{
		"p50_ms":       percentile(ph.Lat, 50),
		"tail_ms":      percentile(ph.Lat, w.tailPct),
		"ops_per_s":    ratio(float64(len(ph.Lat)), ph.Elapsed),
		"points_per_s": ratio(float64(ph.Points), ph.Elapsed),
		"setup_s":      percentile(starts, 50),
		"peak_rss_mb":  ph.PeakRSSMB,
	})
	res := &result{Correct: ph.correct(), Attempted: ph.Attempted, Failed: ph.Failed, Metrics: m}
	printMetrics(stdout, w.name, m)
	printExtra(stdout, w.name, ph.Extra)
	return res, nil
}

// runTraced runs the workload untraced and then traced on the same inputs,
// each for half the run's seconds, runs the layer probes, and reports every
// per-layer metric.
func runTraced(e *env, w workload, stdout io.Writer) (*result, error) {
	half := *e
	half.seconds = max(1, e.seconds/2)
	plain, err := w.measure(&half, false)
	if err != nil {
		return nil, err
	}
	reportProblems(e, w.name, plain)
	traced, err := w.measure(&half, true)
	if err != nil {
		return nil, err
	}
	reportProblems(e, w.name, traced)
	probes, err := childProbes(e)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	values := map[string]float64{}
	for k, v := range probes {
		values[k] = v
	}
	for k, v := range traced.Layer {
		values[k] = v
	}
	for k, v := range traced.Extra {
		values[k] = v
	}
	plainP50, tracedP50 := percentile(plain.Lat, 50), percentile(traced.Lat, 50)
	values["trace.overhead_pct"] = (ratio(tracedP50, plainP50) - 1) * 100
	rows := layers(traced.Spans)
	for _, r := range rows {
		if r.Name == "op" {
			values["trace.op_self_share"] = ratio(r.SelfMs, r.TotalMs)
		}
	}

	m := withUnits(perLayer, values)
	printMetrics(stdout, w.name, m)
	for _, r := range rows {
		fmt.Fprintf(stdout, "# %s span %-16s n=%-6d total %10.1f ms  self %10.1f ms\n",
			w.name, r.Name, r.Count, r.TotalMs, r.SelfMs)
	}
	if err := writeSpans(e, w.name, traced.Spans); err != nil {
		return nil, err
	}
	return &result{
		Correct:   plain.correct() && traced.correct(),
		Attempted: plain.Attempted + traced.Attempted,
		Failed:    plain.Failed + traced.Failed,
		Metrics:   m,
	}, nil
}

// withUnits gives every metric of defs its value and unit. A name absent
// from values reads 0: the workload never enters that layer.
func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{values[d.name], d.unit}
	}
	return m
}

func printMetrics(w io.Writer, workload string, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %s %s %s\n", workload, k, strconv.FormatFloat(m[k].Value, 'g', -1, 64), m[k].Unit)
	}
}

// printExtra prints the text-only metrics of an untraced run.
func printExtra(w io.Writer, workload string, extra map[string]float64) {
	m := map[string]metricValue{}
	for k, v := range extra {
		m[k] = metricValue{v, unitOf(k)}
	}
	printMetrics(w, workload, m)
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

func reportProblems(e *env, name string, ph *phase) {
	for _, p := range slices.Concat(ph.Problems, ph.Violations) {
		fmt.Fprintf(e.log, "perfbench: %s: failed check: %s\n", name, p)
	}
}

// writeSpans writes a traced run's spans next to the other run artifacts.
func writeSpans(e *env, name string, spans []span) error {
	path := filepath.Join(e.workDir, fmt.Sprintf("spans-%s-seed%d.json", name, e.seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{name, e.seed, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(e.log, "perfbench: %s: %d spans written to %s\n", name, len(spans), path)
	return nil
}
