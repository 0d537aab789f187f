// Command bench runs the repository's tracked performance matrix — attack
// family × worker count at the standard test points — and writes a
// structured BENCH_<n>.json artifact establishing the perf trajectory each
// PR appends to.
//
// Usage:
//
//	bench [-iters 3] [-workers 1] [-eps 1e-4] [-o BENCH_10.json]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	bench -check BENCH_10.json [-min-batch-speedup 2] [-max-lease-overhead 50]
//	      [-max-obs-overhead 10]
//	bench -check fresh.json -baseline BENCH_10.json [-min-ratio 0.25]
//
// Measurement mode solves every (point, workers) cell -iters times through
// the public selfishmining API (bound-only, the sweep workload) and records
// the fastest run — fixed iteration counts, unlike `go test
// -benchtime=1x`, so the artifact is comparable across commits. Every cell
// is the pipeline exactly as a plain caller gets it and is labeled
// "default", the label earlier artifacts gave that cell, so -baseline
// still matches cells against them.
//
// Every cell's certified ERRev is cross-checked against the same point's
// cell at the first worker count to within epsilon, so the artifact can
// only record timings of *correct* solves.
//
// The artifact also carries an adaptive-vs-uniform sweep cell: one fork
// panel refined adaptively (tolerance 1e-3) against the equal-fidelity
// uniform grid (the engine's exhaustive mode, which shares the bisection's
// midpoint arithmetic so every comparison is bitwise). The cell records the
// solved-point ratio — the tentpole claim is that the adaptive sweep needs
// at most 1/5 of the uniform grid's points — and whether every adaptive
// point matched its uniform counterpart bit for bit.
//
// The batch cell times one fork panel twice at equal fidelity: per-point
// (one SweepContext call per grid point, each solved solo) and batched
// (one SweepContext call for the panel, whose points share multi-lane
// passes over the structure), cross-checking the two figures bit for bit.
// The recorded speedup — per-point wall-clock over batched wall-clock — is
// guarded in check mode by -min-batch-speedup.
//
// The lease cell prices the multi-replica write path: a batch of
// realistic running-sweep records (31-point checkpoint each) is persisted
// through the in-memory store, the single-replica disk snapshot, and the
// fenced shared-directory PutLeased (directory lock + token validation
// against the lease log + atomic snapshot). The recorded overhead —
// leased put over plain disk put — is the per-persist price of fleet
// coordination, guarded in check mode by -max-lease-overhead.
//
// The obs cell prices the default-on observability hooks: the fork-family
// default solve timed with the process-wide instrumentation switch on
// (obs.SetEnabled(true), how the binary ships) and off, cross-checking the
// certified bounds bit for bit. The recorded overhead percentage — how
// much slower the instrumented solve is — is the cost every caller pays
// for /metrics, guarded in check mode by -max-obs-overhead (the committed
// artifact must show under 1%; hooks fire only at sweep and phase
// boundaries, never inside the value-iteration inner loop).
//
// -cpuprofile and -memprofile write pprof profiles of a measurement run
// (CPU for the whole matrix, heap at the end), for digging into where a
// cell's time or allocations go; see docs/PERFORMANCE.md.
//
// Check mode validates an artifact (schema, required families and default
// cells, positive timings, the adaptive cell's point ratio and bitwise
// flag, the batch cell's speedup floor and bitwise flag, the lease cell's
// overhead ceiling) and exits non-zero on violation — CI runs it against
// the committed baseline so a missing or malformed BENCH_<n>.json fails
// the build. With
// -baseline it additionally compares matching cells of a fresh artifact
// against the committed one and fails if any cell regressed below
// -min-ratio × the baseline throughput (generous by default: shared CI
// runners are noisy).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/kernel"
	"repro/internal/results"
	"repro/selfishmining"
	"repro/selfishmining/jobs"
	"repro/selfishmining/obs"
)

// prNumber stamps the artifact; bump when a new PR re-baselines the
// trajectory (the artifact file name follows it: BENCH_<pr>.json).
const prNumber = 10

// benchPoint is one standard test point of the matrix: the family's default
// shape at the service-layer test chain parameters (p=0.3, γ=0.5) used since
// the PR-2 service tests.
type benchPoint struct {
	Family string  `json:"family"`
	Depth  int     `json:"d"`
	Forks  int     `json:"f"`
	Len    int     `json:"l"`
	P      float64 `json:"p"`
	Gamma  float64 `json:"gamma"`
	States int     `json:"states"`
	Runs   []cell  `json:"runs"`
}

// cell is one measured (variant, workers) cell of a point. Variant is
// always "default" in fresh artifacts; artifacts recorded before the
// kernel variants were removed also carry one cell per named variant.
type cell struct {
	Variant string `json:"variant"`
	Workers int    `json:"workers"`
	// NsOp is the fastest wall-clock of the -iters runs, in nanoseconds.
	NsOp int64 `json:"ns_op"`
	// ERRev is the certified lower bound the run produced (cross-checked
	// against the point's first cell to within epsilon).
	ERRev      float64 `json:"errev"`
	Iterations int     `json:"iterations"`
	Sweeps     int     `json:"sweeps"`
}

// artifact is the BENCH_<n>.json wire form.
type artifact struct {
	Schema   string          `json:"schema"`
	PR       int             `json:"pr"`
	Go       string          `json:"go"`
	GOOS     string          `json:"goos"`
	GOARCH   string          `json:"goarch"`
	Iters    int             `json:"iters"`
	Epsilon  float64         `json:"epsilon"`
	Points   []benchPoint    `json:"points"`
	Adaptive *adaptiveReport `json:"adaptive"`
	Batch    *batchReport    `json:"batch"`
	Lease    *leaseReport    `json:"lease"`
	Obs      *obsReport      `json:"obs"`
	Summary  summary         `json:"summary"`
}

// adaptiveReport is the adaptive-vs-uniform sweep cell: one small fork
// panel solved adaptively and on the equal-fidelity uniform grid (the
// refinement engine's exhaustive mode, same midpoint arithmetic).
type adaptiveReport struct {
	Family    string  `json:"family"`
	Depth     int     `json:"d"`
	Forks     int     `json:"f"`
	Len       int     `json:"l"`
	Gamma     float64 `json:"gamma"`
	PMin      float64 `json:"pmin"`
	PMax      float64 `json:"pmax"`
	PStep     float64 `json:"pstep"`
	Tolerance float64 `json:"tolerance"`
	MaxDepth  int     `json:"max_depth"`
	// CoarsePoints is the requested grid's size; AdaptivePoints and
	// UniformPoints count the attack-curve points each mode solved.
	CoarsePoints   int `json:"coarse_points"`
	AdaptivePoints int `json:"adaptive_points"`
	UniformPoints  int `json:"uniform_points"`
	// PointRatio is AdaptivePoints / UniformPoints — the solved-work
	// fraction the adaptive mode needed for the same fidelity.
	PointRatio float64 `json:"point_ratio"`
	// Bitwise reports that every adaptive point's value equaled the
	// uniform run's value at the same p, bit for bit.
	Bitwise      bool  `json:"bitwise"`
	AdaptiveNsOp int64 `json:"adaptive_ns_op"`
	UniformNsOp  int64 `json:"uniform_ns_op"`
}

// batchReport is the batched-vs-per-point sweep cell: one fork panel
// computed twice at equal fidelity — with the solo per-point scheduler and
// with auto-sized lane batching — timing both and cross-checking the
// figures bit for bit.
type batchReport struct {
	Family string  `json:"family"`
	Depth  int     `json:"d"`
	Forks  int     `json:"f"`
	Len    int     `json:"l"`
	Gamma  float64 `json:"gamma"`
	PMin   float64 `json:"pmin"`
	PMax   float64 `json:"pmax"`
	PStep  float64 `json:"pstep"`
	// Points is the panel's grid size; Lanes the unit width the batched
	// run grouped solves into (kernel.DenseBatchWidth).
	Points int `json:"points"`
	Lanes  int `json:"lanes"`
	// PerPointNsOp / BatchedNsOp are the fastest wall-clocks of the two
	// schedulers over the -iters runs; Speedup is their ratio.
	PerPointNsOp int64   `json:"per_point_ns_op"`
	BatchedNsOp  int64   `json:"batched_ns_op"`
	Speedup      float64 `json:"speedup"`
	// Bitwise reports that the batched figure equaled the per-point
	// figure on every series value, bit for bit.
	Bitwise bool `json:"bitwise"`
}

// leaseReport is the lease-overhead cell: one batch of realistic
// running-sweep records persisted through each job-store write path,
// pricing what the fenced multi-replica persist costs over the
// single-replica disk snapshot it wraps.
type leaseReport struct {
	// Records is the batch size of each timed pass.
	Records int `json:"records"`
	// MemPutNsOp / DiskPutNsOp / DirPutLeasedNsOp are the fastest
	// per-record wall-clocks over the -iters passes of, respectively,
	// MemStore.Put, DiskStore.Put, and DirStore.PutLeased (directory
	// lock + fencing-token validation + atomic snapshot).
	MemPutNsOp       int64 `json:"mem_put_ns_op"`
	DiskPutNsOp      int64 `json:"disk_put_ns_op"`
	DirPutLeasedNsOp int64 `json:"dir_put_leased_ns_op"`
	// Overhead is DirPutLeasedNsOp / DiskPutNsOp — the multiplier the
	// fleet-coordinated write path costs per persist.
	Overhead float64 `json:"overhead"`
}

// obsReport is the instrumentation-overhead cell: the fork-family default
// solve timed with the observability hooks on (as the binary ships) and
// off, cross-checking the certified bounds bit for bit.
type obsReport struct {
	Family string  `json:"family"`
	Depth  int     `json:"d"`
	Forks  int     `json:"f"`
	Len    int     `json:"l"`
	P      float64 `json:"p"`
	Gamma  float64 `json:"gamma"`
	// HooksOnNsOp / HooksOffNsOp are the fastest wall-clocks of the -iters
	// runs with instrumentation enabled (the default) and disabled.
	HooksOnNsOp  int64 `json:"hooks_on_ns_op"`
	HooksOffNsOp int64 `json:"hooks_off_ns_op"`
	// OverheadPct is (on − off) / off × 100 — how much the default-on
	// hooks slow the solve. Negative values are timer noise.
	OverheadPct float64 `json:"overhead_pct"`
	// Bitwise reports that both runs certified the identical ERRev bits:
	// instrumentation must never perturb the numerics.
	Bitwise bool `json:"bitwise"`
}

type summary struct {
	// ForkDefaultNsOp is the single-core fork-family timing — the headline
	// number the perf trajectory tracks.
	ForkDefaultNsOp int64 `json:"fork_default_ns_op"`
	// BatchSweepSpeedup mirrors the batch cell's headline ratio (batched
	// vs per-point wall-clock on the same panel at equal fidelity).
	BatchSweepSpeedup float64 `json:"batch_sweep_speedup"`
}

const schemaV1 = "bench/v1"

// maxAdaptiveRatio is the ceiling check mode enforces on the adaptive
// cell's solved-point ratio: the adaptive sweep must need at most 1/5 of
// the equal-fidelity uniform grid's points.
const maxAdaptiveRatio = 0.2

// points are the standard test points: every registered family at its
// default shape, p=0.3, γ=0.5.
func points() []benchPoint {
	pts := make([]benchPoint, 0, 4)
	for _, m := range selfishmining.Models() {
		pts = append(pts, benchPoint{
			Family: m.Name,
			Depth:  m.DefaultDepth, Forks: m.DefaultForks, Len: m.DefaultMaxForkLen,
			P: 0.3, Gamma: 0.5,
		})
	}
	return pts
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		iters      = fs.Int("iters", 3, "fixed runs per matrix cell; the fastest is recorded")
		workersCSV = fs.String("workers", "1", "comma-separated sweep worker counts (the matrix's workers axis)")
		eps        = fs.Float64("eps", 1e-4, "per-solve analysis precision")
		out        = fs.String("o", "", "write the artifact to this file (default stdout)")
		check      = fs.String("check", "", "validate this artifact instead of measuring, and exit")
		baseline   = fs.String("baseline", "", "with -check: compare matching cells against this committed artifact")
		minBatch   = fs.Float64("min-batch-speedup", 2, "with -check: required batched-vs-per-point sweep speedup of the batch cell")
		maxLease   = fs.Float64("max-lease-overhead", 50, "with -check: ceiling on the lease cell's leased-put-vs-disk-put overhead")
		maxObs     = fs.Float64("max-obs-overhead", 10, "with -check: ceiling (percent) on the obs cell's hooks-on-vs-off solve overhead")
		minRatio   = fs.Float64("min-ratio", 0.25, "with -check -baseline: fail if a cell drops below this fraction of baseline throughput")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the measurement run to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile at the end of the measurement run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check != "" {
		return runCheck(*check, *baseline, *minBatch, *maxLease, *maxObs, *minRatio)
	}
	if *iters < 1 {
		return fmt.Errorf("-iters %d: need >= 1", *iters)
	}
	if *eps <= 0 || math.IsNaN(*eps) {
		return fmt.Errorf("-eps %v: need a positive precision", *eps)
	}
	workers, err := parseWorkers(*workersCSV)
	if err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	art, err := measure(*iters, *eps, workers)
	if err != nil {
		return err
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // report steady-state retention, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

func parseWorkers(csv string) ([]int, error) {
	var ws []int
	for _, part := range strings.Split(csv, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-workers %q: need comma-separated integers >= 1", csv)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// solveCell runs one (point, workers) solve and returns its result and
// wall-clock.
func solveCell(pt benchPoint, workers int, eps float64) (*selfishmining.Analysis, time.Duration, error) {
	params := selfishmining.AttackParams{
		Model:     pt.Family,
		Adversary: pt.P, Switching: pt.Gamma,
		Depth: pt.Depth, Forks: pt.Forks, MaxForkLen: pt.Len,
	}
	opts := []selfishmining.Option{
		selfishmining.WithEpsilon(eps),
		selfishmining.WithBoundOnly(),
		selfishmining.WithWorkers(workers),
	}
	start := time.Now()
	res, err := selfishmining.AnalyzeContext(context.Background(), params, opts...)
	return res, time.Since(start), err
}

func measure(iters int, eps float64, workers []int) (*artifact, error) {
	art := &artifact{
		Schema: schemaV1,
		PR:     prNumber,
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS, GOARCH: runtime.GOARCH,
		Iters:   iters,
		Epsilon: eps,
		Points:  points(),
	}
	for pi := range art.Points {
		pt := &art.Points[pi]
		pt.States = selfishmining.AttackParams{
			Model: pt.Family, Adversary: pt.P, Switching: pt.Gamma,
			Depth: pt.Depth, Forks: pt.Forks, MaxForkLen: pt.Len,
		}.NumStates()
		firstERRev := math.NaN()
		for _, w := range workers {
			c := cell{Variant: "default", Workers: w, NsOp: math.MaxInt64}
			for it := 0; it < iters; it++ {
				res, d, err := solveCell(*pt, w, eps)
				if err != nil {
					return nil, fmt.Errorf("%s workers=%d: %w", pt.Family, w, err)
				}
				if ns := d.Nanoseconds(); ns < c.NsOp {
					c.NsOp = ns
				}
				c.ERRev, c.Iterations, c.Sweeps = res.ERRev, res.Iterations, res.Sweeps
			}
			// Certification cross-check: every worker count must land within
			// epsilon of the first one's certified bound.
			if w == workers[0] {
				firstERRev = c.ERRev
			} else if math.Abs(c.ERRev-firstERRev) > eps {
				return nil, fmt.Errorf("%s workers=%d: ERRev %v disagrees with workers=%d's %v beyond eps=%v",
					pt.Family, w, c.ERRev, workers[0], firstERRev, eps)
			}
			fmt.Fprintf(os.Stderr, "%-11s workers=%d  %10.3fms  (%d sweeps, errev=%.6f)\n",
				pt.Family, w, float64(c.NsOp)/1e6, c.Sweeps, c.ERRev)
			pt.Runs = append(pt.Runs, c)
		}
	}
	ad, err := measureAdaptive(eps)
	if err != nil {
		return nil, err
	}
	art.Adaptive = ad
	bt, err := measureBatch(iters, eps)
	if err != nil {
		return nil, err
	}
	art.Batch = bt
	ls, err := measureLease(iters)
	if err != nil {
		return nil, err
	}
	art.Lease = ls
	ob, err := measureObs(iters, eps)
	if err != nil {
		return nil, err
	}
	art.Obs = ob
	s, err := summarize(art)
	if err != nil {
		return nil, err
	}
	art.Summary = *s
	return art, nil
}

// measureAdaptive runs the adaptive-vs-uniform sweep cell: a small fork
// panel (d=2, f=1, l=3 — cheap enough for CI, curved enough to refine)
// adaptively at tolerance 1e-3 and exhaustively on the equal-fidelity
// uniform grid, comparing point counts and values bit for bit.
func measureAdaptive(eps float64) (*adaptiveReport, error) {
	rep := &adaptiveReport{
		Family: selfishmining.DefaultModel, Depth: 2, Forks: 1, Len: 3,
		Gamma: 0.5, PMin: 0, PMax: 0.3, PStep: 0.01,
		Tolerance: 1e-3, MaxDepth: selfishmining.DefaultSweepMaxDepth,
	}
	grid := results.Grid(rep.PMin, rep.PMax, rep.PStep)
	rep.CoarsePoints = len(grid)
	opts := selfishmining.SweepOptions{
		Gamma: rep.Gamma, PGrid: grid,
		Configs:    []selfishmining.AttackConfig{{Depth: rep.Depth, Forks: rep.Forks}},
		MaxForkLen: rep.Len, TreeWidth: 3, Epsilon: eps,
		Adaptive: true, Tolerance: rep.Tolerance, MaxDepth: rep.MaxDepth,
	}
	start := time.Now()
	adaptiveFig, err := selfishmining.SweepContext(context.Background(), opts)
	if err != nil {
		return nil, fmt.Errorf("adaptive sweep: %w", err)
	}
	rep.AdaptiveNsOp = time.Since(start).Nanoseconds()
	rep.AdaptivePoints = len(adaptiveFig.X)

	opts.Exhaustive = true
	start = time.Now()
	uniformFig, err := selfishmining.SweepContext(context.Background(), opts)
	if err != nil {
		return nil, fmt.Errorf("uniform (exhaustive) sweep: %w", err)
	}
	rep.UniformNsOp = time.Since(start).Nanoseconds()
	rep.UniformPoints = len(uniformFig.X)
	rep.PointRatio = float64(rep.AdaptivePoints) / float64(rep.UniformPoints)

	// Bitwise cross-check: every adaptive x must appear in the uniform
	// grid with the identical value on every series.
	uniformAt := make(map[uint64]int, len(uniformFig.X))
	for i, x := range uniformFig.X {
		uniformAt[math.Float64bits(x)] = i
	}
	rep.Bitwise = true
	for i, x := range adaptiveFig.X {
		k, ok := uniformAt[math.Float64bits(x)]
		if !ok {
			return nil, fmt.Errorf("adaptive x=%v not on the exhaustive grid", x)
		}
		for si, s := range adaptiveFig.Series {
			if math.Float64bits(s.Values[i]) != math.Float64bits(uniformFig.Series[si].Values[k]) {
				rep.Bitwise = false
			}
		}
	}
	fmt.Fprintf(os.Stderr, "adaptive      fork d=%d f=%d  %d points vs %d uniform (ratio %.3f, bitwise %v)\n",
		rep.Depth, rep.Forks, rep.AdaptivePoints, rep.UniformPoints, rep.PointRatio, rep.Bitwise)
	return rep, nil
}

// measureBatch runs the batched-vs-per-point sweep cell: the paper-grid
// fork panel at d=2, f=2, l=5 (7776 states — big enough that the attack
// solves dominate the panel) solved once point by point and once as one
// panel, each on a fresh service so neither mode rides the other's
// caches. The per-point mode makes one SweepContext call per grid point on
// one Service: a one-point sweep always solves solo, and the shared
// Service gives each point the warm start a solo pool would. The batched
// mode is the plain panel call, which solves the points in multi-lane
// units. The single-tree baseline runs at TreeWidth 3 (like the adaptive
// cell) so its identical cost in both modes does not dilute the ratio the
// cell exists to measure. Both figures must agree bit for bit; the
// recorded speedup is the fastest per-point wall-clock over the fastest
// batched one across -iters runs.
func measureBatch(iters int, eps float64) (*batchReport, error) {
	rep := &batchReport{
		Family: selfishmining.DefaultModel, Depth: 2, Forks: 2, Len: 5,
		Gamma: 0.5, PMin: 0, PMax: 0.3, PStep: 0.01,
		Lanes: kernel.DenseBatchWidth,
	}
	grid := results.Grid(rep.PMin, rep.PMax, rep.PStep)
	rep.Points = len(grid)
	opts := selfishmining.SweepOptions{
		Gamma: rep.Gamma, PGrid: grid,
		Configs:    []selfishmining.AttackConfig{{Depth: rep.Depth, Forks: rep.Forks}},
		MaxForkLen: rep.Len, TreeWidth: 3, Epsilon: eps,
		Workers: 1, // single-core, so the ratio isolates batching from parallelism
	}
	var perPointFig, batchedFig *results.Figure
	rep.PerPointNsOp, rep.BatchedNsOp = math.MaxInt64, math.MaxInt64
	for it := 0; it < iters; it++ {
		start := time.Now()
		fig, err := sweepPerPoint(opts)
		if err != nil {
			return nil, fmt.Errorf("per-point sweep: %w", err)
		}
		if ns := time.Since(start).Nanoseconds(); ns < rep.PerPointNsOp {
			rep.PerPointNsOp = ns
		}
		perPointFig = fig

		start = time.Now()
		bfig, err := selfishmining.SweepContext(context.Background(), opts)
		if err != nil {
			return nil, fmt.Errorf("batched sweep: %w", err)
		}
		if ns := time.Since(start).Nanoseconds(); ns < rep.BatchedNsOp {
			rep.BatchedNsOp = ns
		}
		batchedFig = bfig
	}
	rep.Speedup = float64(rep.PerPointNsOp) / float64(rep.BatchedNsOp)
	rep.Bitwise = true
	if len(batchedFig.Series) != len(perPointFig.Series) {
		return nil, fmt.Errorf("batched sweep produced %d series, per-point %d", len(batchedFig.Series), len(perPointFig.Series))
	}
	for si, s := range batchedFig.Series {
		for i := range s.Values {
			if math.Float64bits(s.Values[i]) != math.Float64bits(perPointFig.Series[si].Values[i]) {
				rep.Bitwise = false
			}
		}
	}
	fmt.Fprintf(os.Stderr, "batch         fork d=%d f=%d  %d points, %d lanes: %.3fms batched vs %.3fms per-point (%.2fx, bitwise %v)\n",
		rep.Depth, rep.Forks, rep.Points, rep.Lanes,
		float64(rep.BatchedNsOp)/1e6, float64(rep.PerPointNsOp)/1e6, rep.Speedup, rep.Bitwise)
	return rep, nil
}

// sweepPerPoint computes opts' panel with one SweepContext call per grid
// point on a single Service, assembling the one-point figures into one.
func sweepPerPoint(opts selfishmining.SweepOptions) (*results.Figure, error) {
	svc := selfishmining.NewService(selfishmining.ServiceConfig{})
	fig := &results.Figure{X: opts.PGrid}
	for i, p := range opts.PGrid {
		o := opts
		o.PGrid = []float64{p}
		f, err := svc.SweepContext(context.Background(), o)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			fig.Title, fig.XLabel, fig.YLabel = f.Title, f.XLabel, f.YLabel
			for _, s := range f.Series {
				fig.Series = append(fig.Series, results.Series{Name: s.Name, Values: make([]float64, len(opts.PGrid))})
			}
		}
		for si, s := range f.Series {
			fig.Series[si].Values[i] = s.Values[0]
		}
	}
	return fig, nil
}

// leaseBenchRecord builds one realistic running-sweep record: a paper-grid
// spec plus a 31-point sweep checkpoint — the payload a mid-sweep persist
// actually carries.
func leaseBenchRecord(id string) *jobs.Record {
	now := time.Now()
	spec := &jobs.SweepSpec{
		Gamma: 0.5, Len: 5, TreeWidth: 3, Epsilon: 1e-4,
		Configs: []jobs.SweepConfig{{Depth: 2, Forks: 2}},
	}
	rec := &jobs.Record{Status: jobs.Status{
		ID: id, Kind: jobs.KindSweep, State: jobs.StateRunning,
		Sweep: spec, SubmittedAt: now, StartedAt: &now,
	}}
	for i := 0; i < 31; i++ {
		p := float64(i) * 0.01
		spec.PGrid = append(spec.PGrid, p)
		rec.SweepCheckpoint = append(rec.SweepCheckpoint, jobs.SweepPoint{
			Series: "fork d=2 f=2", Depth: 2, Forks: 2,
			PIndex: i, P: p, ERRev: p * 1.25, Sweeps: 40 + i,
		})
	}
	return rec
}

// measureLease times the lease-overhead cell: the same batch of records
// persisted through MemStore.Put (the in-memory floor), DiskStore.Put
// (the single-replica atomic snapshot), and DirStore.PutLeased (the
// fenced fleet write: directory lock, token validation against the lease
// log, log append, snapshot). Leases are acquired once up front — job
// start, not per-persist — so the timed loop is exactly the steady-state
// checkpoint path.
func measureLease(iters int) (*leaseReport, error) {
	const records = 64
	rep := &leaseReport{Records: records}
	recs := make([]*jobs.Record, records)
	for i := range recs {
		recs[i] = leaseBenchRecord(fmt.Sprintf("bench-%03d", i))
	}
	timePass := func(put func(*jobs.Record) error) (int64, error) {
		best := int64(math.MaxInt64)
		for it := 0; it < iters; it++ {
			start := time.Now()
			for _, r := range recs {
				if err := put(r); err != nil {
					return 0, err
				}
			}
			if ns := time.Since(start).Nanoseconds() / records; ns < best {
				best = ns
			}
		}
		return best, nil
	}

	var err error
	mem := jobs.NewMemStore()
	if rep.MemPutNsOp, err = timePass(mem.Put); err != nil {
		return nil, fmt.Errorf("mem put: %w", err)
	}

	diskDir, err := os.MkdirTemp("", "bench-disk-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(diskDir)
	disk, err := jobs.NewDiskStore(diskDir)
	if err != nil {
		return nil, err
	}
	if rep.DiskPutNsOp, err = timePass(disk.Put); err != nil {
		return nil, fmt.Errorf("disk put: %w", err)
	}

	leaseDir, err := os.MkdirTemp("", "bench-lease-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(leaseDir)
	dir, err := jobs.NewDirStore(leaseDir)
	if err != nil {
		return nil, err
	}
	leases := make(map[string]jobs.Lease, records)
	for _, r := range recs {
		l, err := dir.Acquire(r.ID, "bench", time.Hour)
		if err != nil {
			return nil, fmt.Errorf("acquire %s: %w", r.ID, err)
		}
		leases[r.ID] = l
	}
	if rep.DirPutLeasedNsOp, err = timePass(func(r *jobs.Record) error {
		return dir.PutLeased(r, leases[r.ID])
	}); err != nil {
		return nil, fmt.Errorf("leased put: %w", err)
	}

	rep.Overhead = float64(rep.DirPutLeasedNsOp) / float64(rep.DiskPutNsOp)
	fmt.Fprintf(os.Stderr, "lease         %d records: %.1fµs leased vs %.1fµs disk vs %.1fµs mem per put (%.2fx overhead)\n",
		rep.Records, float64(rep.DirPutLeasedNsOp)/1e3, float64(rep.DiskPutNsOp)/1e3,
		float64(rep.MemPutNsOp)/1e3, rep.Overhead)
	return rep, nil
}

// measureObs times the instrumentation-overhead cell: the fork-family
// default solve (single core, exactly the matrix's headline cell) with
// the process-wide observability switch on — the shipped default — and
// off. Hooks fire only at compile, sweep and phase boundaries, so the
// measured overhead is the whole price of default-on /metrics; both runs
// must certify the identical ERRev bits, because instrumentation sits
// outside the numerics by construction.
func measureObs(iters int, eps float64) (*obsReport, error) {
	m := selfishmining.Models()[0]
	for _, cand := range selfishmining.Models() {
		if cand.Name == selfishmining.DefaultModel {
			m = cand
		}
	}
	rep := &obsReport{
		Family: m.Name,
		Depth:  m.DefaultDepth, Forks: m.DefaultForks, Len: m.DefaultMaxForkLen,
		P: 0.3, Gamma: 0.5,
	}
	pt := benchPoint{
		Family: rep.Family, Depth: rep.Depth, Forks: rep.Forks, Len: rep.Len,
		P: rep.P, Gamma: rep.Gamma,
	}
	timePass := func(enabled bool) (int64, float64, error) {
		obs.SetEnabled(enabled)
		defer obs.SetEnabled(true)
		best, errev := int64(math.MaxInt64), math.NaN()
		for it := 0; it < iters; it++ {
			res, d, err := solveCell(pt, 1, eps)
			if err != nil {
				return 0, 0, err
			}
			if ns := d.Nanoseconds(); ns < best {
				best = ns
			}
			errev = res.ERRev
		}
		return best, errev, nil
	}
	on, onERRev, err := timePass(true)
	if err != nil {
		return nil, fmt.Errorf("obs cell (hooks on): %w", err)
	}
	off, offERRev, err := timePass(false)
	if err != nil {
		return nil, fmt.Errorf("obs cell (hooks off): %w", err)
	}
	rep.HooksOnNsOp, rep.HooksOffNsOp = on, off
	rep.OverheadPct = (float64(on) - float64(off)) / float64(off) * 100
	rep.Bitwise = math.Float64bits(onERRev) == math.Float64bits(offERRev)
	fmt.Fprintf(os.Stderr, "obs           fork d=%d f=%d  %.3fms hooks-on vs %.3fms hooks-off (%+.2f%% overhead, bitwise %v)\n",
		rep.Depth, rep.Forks, float64(on)/1e6, float64(off)/1e6, rep.OverheadPct, rep.Bitwise)
	return rep, nil
}

// summarize derives the headline single-core fork-family timing and the
// batch cell's speedup from the measured cells.
func summarize(art *artifact) (*summary, error) {
	var s summary
	for _, pt := range art.Points {
		if pt.Family != selfishmining.DefaultModel {
			continue
		}
		for _, c := range pt.Runs {
			if c.Workers == 1 && c.Variant == "default" {
				s.ForkDefaultNsOp = c.NsOp
			}
		}
	}
	if s.ForkDefaultNsOp == 0 {
		return nil, fmt.Errorf("summary: missing the single-core fork-family cell")
	}
	if art.Batch != nil {
		s.BatchSweepSpeedup = art.Batch.Speedup
	}
	return &s, nil
}

// loadArtifact reads and schema-validates one artifact file.
func loadArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if art.Schema != schemaV1 {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, art.Schema, schemaV1)
	}
	if len(art.Points) == 0 {
		return nil, fmt.Errorf("%s: no points", path)
	}
	seen := map[string]bool{}
	for _, pt := range art.Points {
		seen[pt.Family] = true
		if len(pt.Runs) == 0 {
			return nil, fmt.Errorf("%s: point %s has no runs", path, pt.Family)
		}
		hasDefault := false
		for _, c := range pt.Runs {
			if c.NsOp <= 0 {
				return nil, fmt.Errorf("%s: %s %s workers=%d: non-positive ns_op %d", path, pt.Family, c.Variant, c.Workers, c.NsOp)
			}
			if c.Variant == "default" {
				hasDefault = true
			}
		}
		if !hasDefault {
			return nil, fmt.Errorf("%s: point %s is missing the default cell", path, pt.Family)
		}
	}
	for _, fam := range []string{"fork", "singletree", "nakamoto"} {
		if !seen[fam] {
			return nil, fmt.Errorf("%s: missing required family %q", path, fam)
		}
	}
	if art.Adaptive == nil {
		return nil, fmt.Errorf("%s: missing the adaptive-vs-uniform cell", path)
	}
	if art.Adaptive.AdaptivePoints <= 0 || art.Adaptive.UniformPoints <= 0 {
		return nil, fmt.Errorf("%s: adaptive cell has non-positive point counts (%d vs %d)",
			path, art.Adaptive.AdaptivePoints, art.Adaptive.UniformPoints)
	}
	// The batch and lease cells are optional here — artifacts before PR 8
	// (resp. PR 9) lack them, and they stay loadable as -baseline inputs —
	// but a nil cell fails the primary -check validation below.
	if art.Batch != nil && (art.Batch.PerPointNsOp <= 0 || art.Batch.BatchedNsOp <= 0) {
		return nil, fmt.Errorf("%s: batch cell has non-positive timings (%d vs %d)",
			path, art.Batch.PerPointNsOp, art.Batch.BatchedNsOp)
	}
	if art.Lease != nil && (art.Lease.MemPutNsOp <= 0 || art.Lease.DiskPutNsOp <= 0 || art.Lease.DirPutLeasedNsOp <= 0) {
		return nil, fmt.Errorf("%s: lease cell has non-positive timings (%d / %d / %d)",
			path, art.Lease.MemPutNsOp, art.Lease.DiskPutNsOp, art.Lease.DirPutLeasedNsOp)
	}
	if art.Obs != nil && (art.Obs.HooksOnNsOp <= 0 || art.Obs.HooksOffNsOp <= 0) {
		return nil, fmt.Errorf("%s: obs cell has non-positive timings (%d / %d)",
			path, art.Obs.HooksOnNsOp, art.Obs.HooksOffNsOp)
	}
	return &art, nil
}

// runCheck validates an artifact and, with a baseline, guards against
// regressions cell by cell.
func runCheck(path, baselinePath string, minBatch, maxLease, maxObs, minRatio float64) error {
	art, err := loadArtifact(path)
	if err != nil {
		return err
	}
	if ad := art.Adaptive; ad.PointRatio > maxAdaptiveRatio {
		return fmt.Errorf("%s: adaptive sweep solved %d of %d uniform points (ratio %.3f > %.2f)",
			path, ad.AdaptivePoints, ad.UniformPoints, ad.PointRatio, maxAdaptiveRatio)
	} else if !ad.Bitwise {
		return fmt.Errorf("%s: adaptive sweep values were not bitwise equal to the uniform grid's", path)
	}
	if art.Batch == nil {
		return fmt.Errorf("%s: missing the batched-vs-per-point sweep cell", path)
	}
	if art.Batch.Speedup < minBatch {
		return fmt.Errorf("%s: batched sweep speedup %.2fx below required %.2fx",
			path, art.Batch.Speedup, minBatch)
	}
	if !art.Batch.Bitwise {
		return fmt.Errorf("%s: batched sweep figure was not bitwise equal to the per-point figure", path)
	}
	if art.Lease == nil {
		return fmt.Errorf("%s: missing the lease-overhead cell", path)
	}
	if art.Lease.Overhead > maxLease {
		return fmt.Errorf("%s: leased put costs %.2fx a plain disk put (ceiling %.2fx)",
			path, art.Lease.Overhead, maxLease)
	}
	if art.Obs == nil {
		return fmt.Errorf("%s: missing the instrumentation-overhead cell", path)
	}
	if art.Obs.OverheadPct > maxObs {
		return fmt.Errorf("%s: observability hooks cost %.2f%% on the fork default solve (ceiling %.2f%%)",
			path, art.Obs.OverheadPct, maxObs)
	}
	if !art.Obs.Bitwise {
		return fmt.Errorf("%s: hooks-on and hooks-off solves certified different ERRev bits", path)
	}
	fmt.Printf("%s: ok (fork %.3fms; adaptive/uniform point ratio %.3f, bitwise; batch speedup %.2fx, bitwise; lease overhead %.2fx; obs overhead %+.2f%%, bitwise)\n",
		path, float64(art.Summary.ForkDefaultNsOp)/1e6, art.Adaptive.PointRatio, art.Batch.Speedup, art.Lease.Overhead, art.Obs.OverheadPct)
	if baselinePath == "" {
		return nil
	}
	base, err := loadArtifact(baselinePath)
	if err != nil {
		return err
	}
	type cellKey struct {
		family, variant string
		workers         int
	}
	baseCells := map[cellKey]int64{}
	for _, pt := range base.Points {
		for _, c := range pt.Runs {
			baseCells[cellKey{pt.Family, c.Variant, c.Workers}] = c.NsOp
		}
	}
	var regressions []string
	compared := 0
	for _, pt := range art.Points {
		for _, c := range pt.Runs {
			baseNs, ok := baseCells[cellKey{pt.Family, c.Variant, c.Workers}]
			if !ok {
				continue
			}
			compared++
			// Throughput ratio vs baseline: 1.0 = identical, < minRatio =
			// regression. Generous by default — CI runners are noisy and the
			// guard must only catch collapses, not jitter.
			if ratio := float64(baseNs) / float64(c.NsOp); ratio < minRatio {
				regressions = append(regressions,
					fmt.Sprintf("%s %s workers=%d: %.1fms vs baseline %.1fms (%.2fx < %.2fx)",
						pt.Family, c.Variant, c.Workers,
						float64(c.NsOp)/1e6, float64(baseNs)/1e6, ratio, minRatio))
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("no cells of %s match the baseline %s", path, baselinePath)
	}
	if len(regressions) > 0 {
		sort.Strings(regressions)
		return fmt.Errorf("%d of %d cells regressed below %.2fx of baseline:\n  %s",
			len(regressions), compared, minRatio, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("%s: %d cells within %.2fx of baseline %s\n", path, compared, minRatio, baselinePath)
	return nil
}
