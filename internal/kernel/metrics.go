package kernel

import "repro/internal/obs"

// Compiled-backend phase instruments, on the shared default registry (see
// docs/OBSERVABILITY.md). All hooks fire at phase boundaries — a whole
// compile, a whole solve — never inside a value-iteration sweep, so the
// kernel inner loops carry zero instrumentation and bitwise determinism
// is untouched.
var (
	compilesTotal = obs.Default().Counter("kernel_compiles_total",
		"Flat-CSR structure compiles (kernel.Compile calls).")
	compileSeconds = obs.Default().Histogram("kernel_compile_seconds",
		"Time to compile one family source into the flat-CSR structure.", obs.DefBuckets())
	solvesTotal = obs.Default().Counter("kernel_solves_total",
		"Compiled-backend mean-payoff solves.")
	solveSweeps = obs.Default().Counter("kernel_solve_sweeps_total",
		"Value-iteration sweeps run by compiled-backend solves.")
	solveSeconds = obs.Default().Histogram("kernel_solve_seconds",
		"Wall time of one compiled-backend mean-payoff solve.", obs.DefBuckets())
	batchRunsTotal = obs.Default().Counter("kernel_batch_runs_total",
		"Multi-lane batch engine runs (Batch.RunCtx calls).")
	batchLanesTotal = obs.Default().Counter("kernel_batch_lanes_total",
		"Lanes solved by the multi-lane batch engine, summed over runs.")
	batchRunSeconds = obs.Default().Histogram("kernel_batch_run_seconds",
		"Wall time of one multi-lane batch engine run.", obs.DefBuckets())
)
