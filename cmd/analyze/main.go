// Command analyze runs the paper's fully automated selfish-mining analysis
// (Algorithm 1) for one attack configuration and reports the ε-tight lower
// bound on the optimal expected relative revenue, the implied chain
// quality, a structural profile of the computed strategy, and baseline
// comparisons.
//
// Usage:
//
//	analyze [-model fork] -p 0.3 -gamma 0.5 -d 2 -f 2 -l 4 [-eps 1e-4]
//	        [-workers N] [-timeout 0] [-progress] [-skip-eval]
//	        [-simulate 200000] [-seed 1] [-save strategy.txt]
//	analyze -server http://host:8080 -submit [-wait] [-priority N] ...
//	analyze -server http://host:8080 -resume JOBID [-wait]
//	analyze -list-models
//
// The analysis is cancellable: SIGINT/SIGTERM (or -timeout expiring) stops
// it at the next value-iteration sweep boundary, and the command reports
// the certified partial progress — the ERRev bracket Algorithm 1 had
// already proven — before exiting non-zero. -progress prints the live
// bracket after every binary-search step.
//
// With -server the analysis runs as an asynchronous job on a running
// serve instance instead of locally: -submit enqueues it and prints the
// job id (add -wait to follow it to completion), and -resume re-enqueues
// a canceled or failed job — replaying its persisted checkpoint, with a
// result bitwise identical to an uninterrupted solve. Interrupting a
// waiting CLI does not stop the server-side job; the printed job id can
// be polled, canceled or resumed later.
//
// The -model flag selects the attack-model family (default: the paper's
// fork model); -list-models describes every registered family and how it
// reads the -d/-f/-l shape flags. Strategy profiling, simulation and
// -save are fork-only (the physical chain substrate replays fork
// strategies).
//
// The command runs through selfishmining.Service, the only path from
// options to Algorithm 1: the package-level selfishmining.AnalyzeContext
// is the same call on a fresh Service, so both return bitwise identical
// analyses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/selfishmining"
	"repro/selfishmining/jobs"
)

// modelFlagHelp names the registered families in the -model usage string.
func modelFlagHelp() string {
	names := make([]string, 0, 4)
	for _, m := range selfishmining.Models() {
		names = append(names, m.Name)
	}
	return fmt.Sprintf("attack-model family: %s (see -list-models)", strings.Join(names, ", "))
}

// printModels writes the family catalog (the CLI twin of /v1/models).
func printModels(w *os.File) {
	for _, m := range selfishmining.Models() {
		fmt.Fprintf(w, "%s: %s\n", m.Name, m.Description)
		fmt.Fprintf(w, "  -d  %s\n", m.Depth)
		fmt.Fprintf(w, "  -f  %s\n", m.Forks)
		fmt.Fprintf(w, "  -l  %s\n", m.MaxForkLen)
		fmt.Fprintf(w, "  default shape: -d %d -f %d -l %d\n", m.DefaultDepth, m.DefaultForks, m.DefaultMaxForkLen)
	}
}

func main() {
	// SIGINT/SIGTERM cancel the analysis at its next deterministic
	// checkpoint; a second signal kills the process the usual way (stop
	// restores default signal handling once the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	var (
		model      = fs.String("model", selfishmining.DefaultModel, modelFlagHelp())
		listModels = fs.Bool("list-models", false, "describe the registered attack-model families and exit")
		p          = fs.Float64("p", 0.3, "adversary resource fraction in [0,1]")
		gamma      = fs.Float64("gamma", 0.5, "switching probability in [0,1]")
		d          = fs.Int("d", 2, "attack depth")
		f          = fs.Int("f", 2, "forks per depth")
		l          = fs.Int("l", 4, "maximal fork length")
		eps        = fs.Float64("eps", 1e-4, "analysis precision epsilon")
		workers    = fs.Int("workers", 0, "goroutines per value-iteration sweep (0 = all cores); results are identical at any setting")
		timeout    = fs.Duration("timeout", 0, "abort the analysis after this long (0 = none); partial progress is reported")
		showProg   = fs.Bool("progress", false, "print the certified ERRev bracket after every binary-search step")
		simSteps   = fs.Int("simulate", 0, "if > 0, Monte-Carlo steps to cross-validate the strategy (fork model only)")
		seed       = fs.Int64("seed", 1, "simulation seed")
		save       = fs.String("save", "", "write the computed strategy to this file (fork model only)")
		skipEval   = fs.Bool("skip-eval", false, "skip exact strategy evaluation (large models)")
		server     = fs.String("server", "", "base URL of a running serve instance (enables -submit/-resume)")
		submit     = fs.Bool("submit", false, "submit the analysis as an async job to -server and print the job id")
		wait       = fs.Bool("wait", false, "with -submit or -resume: follow the job to completion and print its result")
		resumeID   = fs.String("resume", "", "resume this canceled/failed job id on -server")
		priority   = fs.Int("priority", 0, "job queue priority for -submit (higher runs first)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := jobs.ValidateRemoteFlags(*server, *submit, *resumeID, *wait); err != nil {
		return err
	}
	if *submit && (*simSteps > 0 || *save != "") {
		return fmt.Errorf("-simulate/-save are local-only (the job result carries no simulation substrate)")
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout %v: need >= 0 (0 = none)", *timeout)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *listModels {
		printModels(os.Stdout)
		return nil
	}
	if *resumeID != "" {
		return runRemoteResume(ctx, *server, *resumeID, *wait, *showProg)
	}
	if *eps <= 0 || math.IsNaN(*eps) {
		return fmt.Errorf("-eps %v: need a positive precision", *eps)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d: need >= 0 (0 = all cores)", *workers)
	}
	if *simSteps < 0 {
		return fmt.Errorf("-simulate %d: need >= 0 steps", *simSteps)
	}
	params := selfishmining.AttackParams{
		Model:     *model,
		Adversary: *p, Switching: *gamma, Depth: *d, Forks: *f, MaxForkLen: *l,
	}
	if err := params.Validate(); err != nil {
		return err
	}
	isFork := selfishmining.IsDefaultModel(*model)
	if !isFork && *simSteps > 0 {
		return fmt.Errorf("-simulate: the physical simulation substrate only replays the fork family (got -model %s)", *model)
	}
	if !isFork && *save != "" {
		return fmt.Errorf("-save: strategy files are fork-only (got -model %s)", *model)
	}
	if *submit {
		spec := jobs.AnalyzeSpec{
			Model: *model,
			P:     *p, Gamma: *gamma, Depth: *d, Forks: *f, Len: *l,
			Epsilon: *eps, SkipEval: *skipEval,
		}
		return runRemoteSubmit(ctx, *server, spec, *priority, *wait, *showProg)
	}
	fmt.Printf("analyzing %v (%d states, eps=%g)\n", params, params.NumStates(), *eps)

	opts := []selfishmining.Option{selfishmining.WithEpsilon(*eps), selfishmining.WithWorkers(*workers)}
	if *skipEval {
		opts = append(opts, selfishmining.WithoutStrategyEval())
	}
	if *showProg {
		opts = append(opts, selfishmining.WithProgress(func(lo, up float64, iter int) {
			fmt.Fprintf(os.Stderr, "step %2d: ERRev in [%.6f, %.6f]\n", iter, lo, up)
		}))
	}
	svc := selfishmining.NewService(selfishmining.ServiceConfig{Workers: *workers})
	res, err := svc.AnalyzeContext(ctx, params, opts...)
	if err != nil {
		var ce *selfishmining.CancelError
		if errors.As(err, &ce) {
			// Interrupted, but not empty-handed: the bracket narrowed so
			// far is already a certified two-sided bound.
			fmt.Fprintf(os.Stderr, "interrupted after %d binary-search steps (%d sweeps): ERRev in [%.6f, %.6f] certified so far\n",
				ce.Iterations, ce.Sweeps, ce.BetaLow, ce.BetaUp)
		}
		return err
	}
	fmt.Printf("ERRev lower bound:  %.6f  (epsilon-tight, Corollary 3.3)\n", res.ERRev)
	if !selfishmining.IsSkipped(res.StrategyERRev) {
		fmt.Printf("strategy ERRev:     %.6f  (independent fixed-policy evaluation)\n", res.StrategyERRev)
	}
	fmt.Printf("chain quality:      %.6f\n", res.ChainQuality())
	fmt.Printf("binary search:      %d iterations, %d VI sweeps\n", res.Iterations, res.Sweeps)

	honest, err := selfishmining.HonestRevenue(*p)
	if err != nil {
		return err
	}
	if isFork {
		tree, err := selfishmining.SingleTreeRevenue(*p, *gamma, *l, 5)
		if err != nil {
			return err
		}
		fmt.Printf("baselines:          honest %.6f, single-tree(f=5) %.6f\n", honest, tree)
	} else {
		fmt.Printf("baselines:          honest %.6f\n", honest)
	}

	if prof, err := res.Profile(); err == nil {
		fmt.Print(prof.Describe())
	} else if !errors.Is(err, selfishmining.ErrNoSubstrate) {
		return err
	}

	if *simSteps > 0 {
		st, err := res.Simulate(*simSteps, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("simulation:         ERRev %.6f +- %.6f (%d blocks, %d races won of %d, %d orphaned honest)\n",
			st.ERRev, st.StdErr, st.AdvBlocks+st.HonestBlocks, st.RaceWins, st.Races, st.Orphaned)
	}
	if *save != "" {
		out, err := os.Create(*save)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := res.WriteStrategy(out); err != nil {
			return err
		}
		fmt.Printf("strategy saved to %s\n", *save)
	}
	return nil
}

// runRemoteSubmit enqueues the configuration as an async job on the
// server and optionally follows it.
func runRemoteSubmit(ctx context.Context, server string, spec jobs.AnalyzeSpec, priority int, wait, showProg bool) error {
	cl := &jobs.Client{BaseURL: server}
	st, err := cl.Submit(ctx, jobs.Request{Kind: jobs.KindAnalyze, Priority: priority, Analyze: &spec})
	if err != nil {
		return err
	}
	fmt.Printf("job %s submitted (%s)\n", st.ID, st.State)
	if !wait {
		fmt.Printf("follow with: analyze -server %s -resume %s -wait (after a cancel), or GET %s/v1/jobs/%s\n",
			server, st.ID, server, st.ID)
		return nil
	}
	return waitRemote(ctx, cl, server, st.ID, showProg)
}

// runRemoteResume re-enqueues a canceled/failed job (replaying its
// checkpoint) and optionally follows it.
func runRemoteResume(ctx context.Context, server, id string, wait, showProg bool) error {
	cl := &jobs.Client{BaseURL: server}
	st, err := cl.Get(ctx, id, false)
	if err != nil {
		return err
	}
	if st.Kind != jobs.KindAnalyze {
		return fmt.Errorf("job %s is a %s job; resume it with the %s CLI", id, st.Kind, st.Kind)
	}
	if st, err = cl.Resume(ctx, id); err != nil {
		return err
	}
	if st.HasCheckpoint {
		fmt.Printf("job %s resumed from its checkpoint (%d binary-search steps certified)\n", st.ID, st.Progress.Iterations)
	} else {
		fmt.Printf("job %s re-queued from the start (no checkpoint)\n", st.ID)
	}
	if !wait {
		return nil
	}
	return waitRemote(ctx, cl, server, st.ID, showProg)
}

// waitRemote follows a job to a terminal state and prints its result.
// Interrupting the wait leaves the job running server-side.
func waitRemote(ctx context.Context, cl *jobs.Client, server, id string, showProg bool) error {
	final, err := cl.Wait(ctx, id, 0, func(st *jobs.Status) {
		if showProg && st.State == jobs.StateRunning && st.Progress.Iterations > 0 {
			fmt.Fprintf(os.Stderr, "step %2d: ERRev in [%.6f, %.6f]\n",
				st.Progress.Iterations, st.Progress.BetaLow, st.Progress.BetaUp)
		}
	})
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "wait interrupted; job %s continues server-side (cancel: DELETE %s/v1/jobs/%s)\n",
				id, server, id)
		}
		return err
	}
	switch final.State {
	case jobs.StateDone:
		res := final.Result
		if res == nil {
			return fmt.Errorf("job %s is a %s job with no analysis result; fetch it with the matching CLI", id, final.Kind)
		}
		fmt.Printf("ERRev lower bound:  %.6f  (epsilon-tight, Corollary 3.3)\n", res.ERRev)
		if res.StrategyERRev != nil {
			fmt.Printf("strategy ERRev:     %.6f  (independent fixed-policy evaluation)\n", *res.StrategyERRev)
		}
		fmt.Printf("chain quality:      %.6f\n", res.ChainQuality)
		fmt.Printf("binary search:      %d iterations, %d VI sweeps (%d states)\n",
			res.Iterations, res.Sweeps, res.NumStates)
		return nil
	case jobs.StateCanceled:
		return fmt.Errorf("job %s was canceled after %d steps, ERRev in [%.6f, %.6f]; resume with -resume %s",
			id, final.Progress.Iterations, final.Progress.BetaLow, final.Progress.BetaUp, id)
	default:
		return fmt.Errorf("job %s %s: %s", id, final.State, final.Error)
	}
}
