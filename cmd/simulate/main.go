// Command simulate analyzes one attack configuration and replays the
// computed ε-optimal strategy on the physical blockchain substrate,
// reporting empirical statistics (relative revenue, races, orphaned honest
// blocks) against the analyzed values. Every run self-checks consistency
// between the MDP's reward ledger and main-chain ownership in the block
// tree.
//
// Usage:
//
//	simulate -p 0.3 -gamma 0.5 -d 2 -f 2 -l 4 [-eps 1e-4] [-steps 1000000]
//	         [-seed 1] [-timeout 0]
//
// The analysis phase is cancellable: SIGINT/SIGTERM (or -timeout expiring)
// stops it at the next value-iteration sweep boundary and the command
// reports the certified partial bracket before exiting non-zero, matching
// the other CLIs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"

	"repro/selfishmining"
)

func main() {
	// SIGINT/SIGTERM cancel the analysis at its next deterministic
	// checkpoint; a second signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		p       = fs.Float64("p", 0.3, "adversary resource fraction")
		gamma   = fs.Float64("gamma", 0.5, "switching probability")
		d       = fs.Int("d", 2, "attack depth")
		f       = fs.Int("f", 2, "forks per depth")
		l       = fs.Int("l", 4, "maximal fork length")
		steps   = fs.Int("steps", 1000000, "simulation steps")
		seed    = fs.Int64("seed", 1, "random seed")
		eps     = fs.Float64("eps", 1e-4, "analysis precision")
		timeout = fs.Duration("timeout", 0, "abort the analysis after this long (0 = none); partial progress is reported")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *eps <= 0 || math.IsNaN(*eps) {
		return fmt.Errorf("-eps %v: need a positive precision", *eps)
	}
	if *steps <= 0 {
		return fmt.Errorf("-steps %d: need > 0 simulation steps", *steps)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout %v: need >= 0 (0 = none)", *timeout)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	params := selfishmining.AttackParams{
		Adversary: *p, Switching: *gamma, Depth: *d, Forks: *f, MaxForkLen: *l,
	}
	if err := params.Validate(); err != nil {
		return err
	}
	res, err := selfishmining.AnalyzeContext(ctx, params, selfishmining.WithEpsilon(*eps))
	if err != nil {
		var ce *selfishmining.CancelError
		if errors.As(err, &ce) {
			fmt.Fprintf(os.Stderr, "interrupted after %d binary-search steps (%d sweeps): ERRev in [%.6f, %.6f] certified so far\n",
				ce.Iterations, ce.Sweeps, ce.BetaLow, ce.BetaUp)
		}
		return err
	}
	fmt.Printf("analysis: ERRev bound %.6f, strategy ERRev %.6f (fixed-policy evaluation)\n", res.ERRev, res.StrategyERRev)

	st, err := res.Simulate(*steps, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("empirical: ERRev %.6f +- %.6f over %d permanent blocks\n", st.ERRev, st.StdErr, st.AdvBlocks+st.HonestBlocks)
	fmt.Printf("  chain length %d, releases %d, races %d (won %d), honest blocks orphaned %d\n",
		st.ChainLength, st.Releases, st.Races, st.RaceWins, st.Orphaned)
	if dev := math.Abs(st.ERRev - res.StrategyERRev); dev > 5*st.StdErr+1e-3 {
		return fmt.Errorf("simulation deviates from the evaluated strategy ERRev by %.6f (> 5 sigma): model/simulator divergence", dev)
	}
	fmt.Println("simulation agrees with the fixed-policy evaluation (within 5 sigma)")
	return nil
}
