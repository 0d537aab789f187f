//go:build amd64

package kernel_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// TestBatchWithoutAVX2Fails: on an amd64 CPU without AVX2 no batch sweep
// exists, so NewBatch and the batched analysis built on it refuse with an
// error naming AVX2, and the refused analysis counts no Algorithm 1 run.
func TestBatchWithoutAVX2Fails(t *testing.T) {
	c, err := families.Compile("fork", core.Params{P: 0.3, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 3})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	defer kernel.SetHaveAVX2(false)()
	if _, err := kernel.NewBatch(c, []kernel.LaneParams{{P: 0.3, Gamma: 0.5}}); err == nil || !strings.Contains(err.Error(), "AVX2") {
		t.Errorf("NewBatch without AVX2: err = %v, want an error naming AVX2", err)
	}
	runs := obs.Default().CounterVec("analysis_runs_total", "", "backend").With("batch")
	before := runs.Value()
	lanes := []analysis.BatchLane{{P: 0.2, Gamma: 0.5}, {P: 0.3, Gamma: 0.5}}
	if _, err := analysis.AnalyzeBatch(context.Background(), c, lanes, analysis.Options{SkipStrategy: true}); err == nil || !strings.Contains(err.Error(), "AVX2") {
		t.Errorf("AnalyzeBatch without AVX2: err = %v, want an error naming AVX2", err)
	}
	if got := runs.Value() - before; got != 0 {
		t.Errorf("refused batched analysis moved analysis_runs_total{backend=batch} by %d, want 0", got)
	}
}
