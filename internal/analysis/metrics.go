package analysis

import "repro/internal/obs"

// Algorithm 1 instruments, on the shared default registry, labeled by the
// solving backend: "compiled" (flat-CSR kernel, one run per analysis) and
// "batch" (multi-lane engine, one run per lane). Step counters tick at
// binary-search step boundaries — where the context checks and Progress
// hooks already fire — never inside a solve.
var (
	analysisRuns = obs.Default().CounterVec("analysis_runs_total",
		"Algorithm 1 threshold analyses started, by solving backend.", "backend")
	analysisSteps = obs.Default().CounterVec("analysis_steps_total",
		"Binary-search steps taken by Algorithm 1, by solving backend.", "backend")
	analysisSeconds = obs.Default().HistogramVec("analysis_seconds",
		"Wall time of one Algorithm 1 analysis, by solving backend.",
		obs.DefBuckets(), "backend")
)

const (
	backendCompiled = "compiled"
	backendBatch    = "batch"
)
