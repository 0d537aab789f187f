// Command sweep regenerates one panel of the paper's Figure 2: expected
// relative revenue as a function of the adversary's resource fraction, for
// the honest baseline, the single-tree selfish-mining baseline, and the
// paper's attack at each requested (d, f) configuration.
//
// Usage:
//
//	sweep -gamma 0.5 [-model fork] [-pmin 0] [-pmax 0.3] [-pstep 0.01]
//	      [-configs 1x1,2x1,2x2,3x2] [-l 4] [-width 5] [-eps 1e-4]
//	      [-adaptive [-tolerance 1e-3] [-max-depth 4] [-max-points N]]
//	      [-workers N] [-timeout 0]
//	      [-o figure2c.csv] [-markdown]
//	sweep -server http://host:8080 -submit [-wait] [-priority N] ...
//	sweep -server http://host:8080 -resume JOBID [-wait]
//
// With -server the panel is computed as an asynchronous job on a running
// serve instance: -submit enqueues it and prints the job id; -wait follows
// it (streaming per-point progress to stderr) and writes the finished
// panel exactly as a local run would; -resume re-enqueues a canceled or
// failed sweep job. Interrupting a waiting CLI leaves the job running
// server-side.
//
// The sweep is cancellable: SIGINT/SIGTERM (or -timeout expiring) stops
// the remaining grid points at their next deterministic checkpoint. Grid
// points stream to stderr as they complete (suppress with -q), so an
// interrupted run leaves every finished point on record; the CSV/Markdown
// output file is only written when the full panel completes, never as a
// torn partial table.
//
// -adaptive turns the p-grid into the coarse pass of a threshold-refining
// sweep: cells whose solved values prove curvature beyond -tolerance are
// recursively bisected up to -max-depth, so the output grid is dense only
// around the profitability threshold. Every emitted point is bitwise
// identical to what a uniform sweep at the same p would produce; see
// docs/SWEEPS.md.
//
// The paper's full configuration list includes 4x2 (9.4M states); include
// it explicitly via -configs when you have the time budget.
//
// -model sweeps a different attack-model family (see analyze -list-models);
// with a non-fork family the -configs and -l defaults become the family's
// default shape, and the single-tree baseline series (which accompanies
// the fork figure) is omitted.
//
// Grid points of one attack configuration are solved in batched groups
// wherever that is faster (hardware with the AVX2 dense sweep, and
// structures small enough to batch); see docs/SWEEPS.md. The figure is
// bitwise identical either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/results"
	"repro/selfishmining"
	"repro/selfishmining/jobs"
)

func main() {
	// SIGINT/SIGTERM cancel the sweep at its next deterministic
	// checkpoint; completed points were already streamed to stderr.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		model    = fs.String("model", selfishmining.DefaultModel, "attack-model family (see analyze -list-models)")
		gamma    = fs.Float64("gamma", 0.5, "switching probability in [0,1]")
		pmin     = fs.Float64("pmin", 0, "smallest adversary resource")
		pmax     = fs.Float64("pmax", 0.3, "largest adversary resource")
		pstep    = fs.Float64("pstep", 0.01, "resource grid step")
		configs  = fs.String("configs", "", "comma-separated dxf attack configurations (default 1x1,2x1,2x2,3x2 for the fork model, the family's default shape otherwise)")
		l        = fs.Int("l", 0, "maximal fork length (default 4 for the fork model, the family default otherwise)")
		width    = fs.Int("width", 5, "single-tree baseline width (fork model only)")
		eps      = fs.Float64("eps", 1e-4, "per-point analysis precision")
		adaptive = fs.Bool("adaptive", false, "refine the p-grid adaptively around the profitability threshold (see docs/SWEEPS.md)")
		tol      = fs.Float64("tolerance", 0, "adaptive refinement tolerance (0 = default 1e-3; requires -adaptive)")
		maxDepth = fs.Int("max-depth", 0, "adaptive bisection depth bound (0 = default 4; requires -adaptive)")
		maxPts   = fs.Int("max-points", 0, "cap on refined points an adaptive sweep may add (0 = unlimited; requires -adaptive)")
		workers  = fs.Int("workers", 0, "worker pool size over grid points (0 = all cores); results are identical at any setting")
		timeout  = fs.Duration("timeout", 0, "abort the sweep after this long (0 = none); completed points were already streamed to stderr")
		out      = fs.String("o", "", "write CSV to this file (default stdout)")
		markdown = fs.Bool("markdown", false, "emit a Markdown table instead of CSV")
		quiet    = fs.Bool("q", false, "suppress per-point progress on stderr")
		server   = fs.String("server", "", "base URL of a running serve instance (enables -submit/-resume)")
		submit   = fs.Bool("submit", false, "submit the sweep as an async job to -server and print the job id")
		wait     = fs.Bool("wait", false, "with -submit or -resume: follow the job and write the finished panel")
		resumeID = fs.String("resume", "", "resume this canceled/failed job id on -server")
		priority = fs.Int("priority", 0, "job queue priority for -submit (higher runs first)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := jobs.ValidateRemoteFlags(*server, *submit, *resumeID, *wait); err != nil {
		return err
	}
	if *pstep <= 0 || math.IsNaN(*pstep) {
		return fmt.Errorf("-pstep %v: need a positive grid step", *pstep)
	}
	if *pmin < 0 || *pmax > 1 || *pmin > *pmax || math.IsNaN(*pmin) || math.IsNaN(*pmax) {
		return fmt.Errorf("-pmin %v -pmax %v: need 0 <= pmin <= pmax <= 1", *pmin, *pmax)
	}
	if *eps <= 0 || math.IsNaN(*eps) {
		return fmt.Errorf("-eps %v: need a positive precision", *eps)
	}
	if !*adaptive && (*tol != 0 || *maxDepth != 0 || *maxPts != 0) {
		return fmt.Errorf("-tolerance/-max-depth/-max-points require -adaptive")
	}
	if *adaptive {
		if *tol < 0 || math.IsNaN(*tol) {
			return fmt.Errorf("-tolerance %v: need >= 0 (0 = default)", *tol)
		}
		if *maxDepth < 0 || *maxPts < 0 {
			return fmt.Errorf("-max-depth %d / -max-points %d: need >= 0", *maxDepth, *maxPts)
		}
	}
	lSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "l" {
			lSet = true
		}
	})
	if lSet && *l < 1 {
		return fmt.Errorf("-l %d: need a fork length bound >= 1", *l)
	}
	if *width < 1 {
		return fmt.Errorf("-width %d: need a baseline tree width >= 1", *width)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d: need >= 0 (0 = all cores)", *workers)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout %v: need >= 0 (0 = none)", *timeout)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *resumeID != "" {
		return remoteSweepResume(ctx, *server, *resumeID, *wait, *quiet, stdout, *out, *markdown)
	}
	isFork := selfishmining.IsDefaultModel(*model)
	// The library default config list includes 4x2 (9.4M states); the CLI
	// default stays bounded. Non-fork families default to their own shape.
	cfgSpec := *configs
	if cfgSpec == "" && isFork {
		cfgSpec = "1x1,2x1,2x2,3x2"
	}
	var cfgs []selfishmining.AttackConfig
	if cfgSpec != "" {
		var err error
		cfgs, err = parseConfigs(cfgSpec)
		if err != nil {
			return err
		}
	}
	maxLen := *l
	if !lSet && isFork {
		maxLen = selfishmining.DefaultSweepMaxForkLen
	}
	if *submit {
		spec := jobs.SweepSpec{
			Model: *model, Gamma: *gamma,
			PGrid:     results.Grid(*pmin, *pmax, *pstep),
			Len:       maxLen,
			Epsilon:   *eps,
			Adaptive:  *adaptive,
			Tolerance: *tol,
			MaxDepth:  *maxDepth,
			MaxPoints: *maxPts,
		}
		if *width != 5 {
			spec.TreeWidth = *width
		}
		for _, c := range cfgs {
			spec.Configs = append(spec.Configs, jobs.SweepConfig{Depth: c.Depth, Forks: c.Forks})
		}
		return remoteSweepSubmit(ctx, *server, spec, *priority, *wait, *quiet, stdout, *out, *markdown)
	}
	progress := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		progress = nil
	}
	fig, err := selfishmining.SweepContext(ctx, selfishmining.SweepOptions{
		Model:      *model,
		Gamma:      *gamma,
		PGrid:      results.Grid(*pmin, *pmax, *pstep),
		Configs:    cfgs,
		MaxForkLen: maxLen,
		TreeWidth:  *width,
		Epsilon:    *eps,
		Adaptive:   *adaptive,
		Tolerance:  *tol,
		MaxDepth:   *maxDepth,
		MaxPoints:  *maxPts,
		Workers:    *workers,
		Progress:   progress,
	})
	if err != nil {
		if errors.Is(err, selfishmining.ErrCanceled) {
			// Completed points already streamed via -progress; the panel
			// file is all-or-nothing, so nothing torn was written.
			fmt.Fprintln(os.Stderr, "sweep interrupted; no panel written (completed points were streamed above)")
		}
		return err
	}
	return writePanel(fig, stdout, *out, *markdown)
}

// writePanel renders the finished figure to -o (or stdout) as CSV or
// Markdown — shared by local sweeps and remote job results.
func writePanel(fig *results.Figure, stdout io.Writer, out string, markdown bool) error {
	w := stdout
	if out != "" {
		file, err := os.Create(out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	if markdown {
		return fig.WriteMarkdown(w)
	}
	return fig.WriteCSV(w)
}

// remoteSweepSubmit enqueues the panel as an async job on the server.
func remoteSweepSubmit(ctx context.Context, server string, spec jobs.SweepSpec, priority int, wait, quiet bool, stdout io.Writer, out string, markdown bool) error {
	cl := &jobs.Client{BaseURL: server}
	st, err := cl.Submit(ctx, jobs.Request{Kind: jobs.KindSweep, Priority: priority, Sweep: &spec})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "job %s submitted (%s, %d grid points)\n", st.ID, st.State, st.Progress.PointsTotal)
	if !wait {
		return nil
	}
	return remoteSweepWait(ctx, cl, server, st.ID, quiet, stdout, out, markdown)
}

// remoteSweepResume re-enqueues a canceled/failed sweep job.
func remoteSweepResume(ctx context.Context, server, id string, wait, quiet bool, stdout io.Writer, out string, markdown bool) error {
	cl := &jobs.Client{BaseURL: server}
	st, err := cl.Get(ctx, id, false)
	if err != nil {
		return err
	}
	if st.Kind != jobs.KindSweep {
		return fmt.Errorf("job %s is a %s job; resume it with the %s CLI", id, st.Kind, st.Kind)
	}
	if st, err = cl.Resume(ctx, id); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "job %s re-queued (%d/%d points were done; checkpointed points replay without re-solving)\n",
		st.ID, st.Progress.PointsDone, st.Progress.PointsTotal)
	if !wait {
		return nil
	}
	return remoteSweepWait(ctx, cl, server, id, quiet, stdout, out, markdown)
}

// remoteSweepWait follows the job and writes the finished panel.
func remoteSweepWait(ctx context.Context, cl *jobs.Client, server, id string, quiet bool, stdout io.Writer, out string, markdown bool) error {
	final, err := cl.Wait(ctx, id, 0, func(st *jobs.Status) {
		if !quiet && st.State == jobs.StateRunning {
			fmt.Fprintf(os.Stderr, "%d/%d points done\n", st.Progress.PointsDone, st.Progress.PointsTotal)
		}
	})
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "wait interrupted; job %s continues server-side (cancel: DELETE %s/v1/jobs/%s)\n",
				id, server, id)
		}
		return err
	}
	if final.State != jobs.StateDone {
		return fmt.Errorf("job %s %s: %s (resume with -resume %s)", id, final.State, final.Error, id)
	}
	if final.SweepResult == nil {
		return fmt.Errorf("job %s is a %s job with no sweep panel; fetch it with the matching CLI", id, final.Kind)
	}
	fig, err := final.SweepResult.Figure()
	if err != nil {
		return err
	}
	return writePanel(fig, stdout, out, markdown)
}

func parseConfigs(s string) ([]selfishmining.AttackConfig, error) {
	var out []selfishmining.AttackConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var d, f int
		if n, err := fmt.Sscanf(part, "%dx%d", &d, &f); err != nil || n != 2 {
			return nil, fmt.Errorf("bad config %q (want dxf, e.g. 2x2)", part)
		}
		out = append(out, selfishmining.AttackConfig{Depth: d, Forks: f})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no attack configurations given")
	}
	return out, nil
}
