package analysis

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/families"
)

// TestTimingCompiled reports compiled-path analysis timings on the medium
// configurations (informational; run with -v).
func TestTimingCompiled(t *testing.T) {
	if testing.Short() {
		t.Skip("timing probe")
	}
	for _, cfg := range []core.Params{
		{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 2, MaxLen: 4},
		{P: 0.3, Gamma: 0.5, Depth: 3, Forks: 2, MaxLen: 4},
	} {
		start := time.Now()
		c, err := families.Compile("fork", cfg)
		if err != nil {
			t.Fatalf("Compile(%v): %v", cfg, err)
		}
		compileTime := time.Since(start)
		res, err := Analyze(t.Context(), c, Options{Epsilon: 1e-4})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		t.Logf("%v: ERRev=%.5f stratERRev=%.5f iters=%d sweeps=%d compile=%v solve=%v",
			cfg, res.ERRev, res.StrategyERRev, res.Iterations, res.Sweeps, compileTime, res.Duration)
	}
}
