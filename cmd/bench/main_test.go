package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testArtifact builds a minimal valid artifact; mutate copies to probe the
// validator.
func testArtifact() *artifact {
	mkPoint := func(fam string, ns int64) benchPoint {
		return benchPoint{
			Family: fam, Depth: 1, Forks: 1, Len: 4, P: 0.3, Gamma: 0.5, States: 100,
			Runs: []cell{{Variant: "default", Workers: 1, NsOp: ns, ERRev: 0.4}},
		}
	}
	art := &artifact{
		Schema: schemaV1, PR: prNumber, Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
		Iters: 3, Epsilon: 1e-4,
		Points: []benchPoint{
			mkPoint("fork", 300e6),
			mkPoint("singletree", 17e6),
			mkPoint("nakamoto", 7e6),
		},
		Adaptive: &adaptiveReport{
			Family: "fork", Depth: 2, Forks: 1, Len: 3,
			Gamma: 0.5, PMin: 0, PMax: 0.3, PStep: 0.01,
			Tolerance: 1e-3, MaxDepth: 4,
			CoarsePoints: 31, AdaptivePoints: 65, UniformPoints: 481,
			PointRatio: 65.0 / 481, Bitwise: true,
			AdaptiveNsOp: 50e6, UniformNsOp: 400e6,
		},
		Batch: &batchReport{
			Family: "fork", Depth: 2, Forks: 2, Len: 4,
			Gamma: 0.5, PMin: 0, PMax: 0.3, PStep: 0.01,
			Points: 31, Lanes: 16,
			PerPointNsOp: 600e6, BatchedNsOp: 200e6, Speedup: 3,
			Bitwise: true,
		},
		Lease: &leaseReport{
			Records:    64,
			MemPutNsOp: 5e3, DiskPutNsOp: 60e3, DirPutLeasedNsOp: 300e3,
			Overhead: 5,
		},
		Obs: &obsReport{
			Family: "fork", Depth: 1, Forks: 1, Len: 4, P: 0.3, Gamma: 0.5,
			HooksOnNsOp: 301e6, HooksOffNsOp: 300e6,
			OverheadPct: 1.0 / 3, Bitwise: true,
		},
	}
	s, err := summarize(art)
	if err != nil {
		panic(err)
	}
	art.Summary = *s
	return art
}

func writeArtifact(t *testing.T, art *artifact) string {
	t.Helper()
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummarize(t *testing.T) {
	art := testArtifact()
	if s := art.Summary; s.ForkDefaultNsOp != 300e6 || s.BatchSweepSpeedup != 3 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestCheckValidArtifact(t *testing.T) {
	path := writeArtifact(t, testArtifact())
	if err := runCheck(path, "", 2, 50, 10, 0.25); err != nil {
		t.Fatalf("check of a valid artifact: %v", err)
	}
	// Self-comparison is the identity: every cell at exactly 1.0x.
	if err := runCheck(path, path, 2, 50, 10, 0.25); err != nil {
		t.Fatalf("self-baseline check: %v", err)
	}
}

func TestCheckRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*artifact)
		want   string
	}{
		{"wrong schema", func(a *artifact) { a.Schema = "bench/v0" }, "schema"},
		{"no points", func(a *artifact) { a.Points = nil }, "no points"},
		{"missing family", func(a *artifact) { a.Points = a.Points[:2] }, `missing required family "nakamoto"`},
		{"zero timing", func(a *artifact) { a.Points[0].Runs[0].NsOp = 0 }, "non-positive ns_op"},
		{"missing default cell", func(a *artifact) { a.Points[1].Runs[0].Variant = "gs" }, "missing the default cell"},
		{"missing adaptive cell", func(a *artifact) { a.Adaptive = nil }, "adaptive-vs-uniform"},
		{"adaptive zero points", func(a *artifact) { a.Adaptive.UniformPoints = 0 }, "non-positive point counts"},
		{"missing batch cell", func(a *artifact) { a.Batch = nil }, "batched-vs-per-point"},
		{"batch zero timing", func(a *artifact) { a.Batch.BatchedNsOp = 0 }, "non-positive timings"},
		{"batch not bitwise", func(a *artifact) { a.Batch.Bitwise = false }, "bitwise"},
		{"missing lease cell", func(a *artifact) { a.Lease = nil }, "lease-overhead"},
		{"lease zero timing", func(a *artifact) { a.Lease.DiskPutNsOp = 0 }, "non-positive timings"},
		{"missing obs cell", func(a *artifact) { a.Obs = nil }, "instrumentation-overhead"},
		{"obs zero timing", func(a *artifact) { a.Obs.HooksOffNsOp = 0 }, "non-positive timings"},
		{"obs not bitwise", func(a *artifact) { a.Obs.Bitwise = false }, "bitwise"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			art := testArtifact()
			tc.mutate(art)
			err := runCheck(writeArtifact(t, art), "", 2, 50, 10, 0.25)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestCheckMissingFileFails(t *testing.T) {
	if err := runCheck(filepath.Join(t.TempDir(), "absent.json"), "", 2, 50, 10, 0.25); err == nil {
		t.Fatal("check of a missing artifact succeeded")
	}
}

func TestCheckSpeedupFloor(t *testing.T) {
	// The batch cell's floor: 3x measured, 100x demanded.
	path := writeArtifact(t, testArtifact())
	if err := runCheck(path, "", 100, 50, 10, 0.25); err == nil || !strings.Contains(err.Error(), "batched sweep speedup") {
		t.Fatalf("err = %v, want batch-speedup-floor violation", err)
	}
}

func TestCheckLeaseOverheadCeiling(t *testing.T) {
	// The lease cell's guard is a ceiling: 5x measured passes 50x, fails 2x.
	path := writeArtifact(t, testArtifact())
	if err := runCheck(path, "", 2, 2, 10, 0.25); err == nil || !strings.Contains(err.Error(), "leased put costs") {
		t.Fatalf("err = %v, want lease-overhead-ceiling violation", err)
	}
}

func TestCheckObsOverheadCeiling(t *testing.T) {
	// The obs cell's guard is a ceiling in percent: 0.33% measured passes
	// the default 10%, fails 0.1%.
	path := writeArtifact(t, testArtifact())
	if err := runCheck(path, "", 2, 50, 0.1, 0.25); err == nil || !strings.Contains(err.Error(), "observability hooks cost") {
		t.Fatalf("err = %v, want obs-overhead-ceiling violation", err)
	}
}

func TestCheckAdaptiveRatioCeiling(t *testing.T) {
	art := testArtifact()
	art.Adaptive.AdaptivePoints = art.Adaptive.UniformPoints
	art.Adaptive.PointRatio = 1
	if err := runCheck(writeArtifact(t, art), "", 2, 50, 10, 0.25); err == nil || !strings.Contains(err.Error(), "ratio") {
		t.Fatalf("err = %v, want adaptive-ratio violation", err)
	}
	art = testArtifact()
	art.Adaptive.Bitwise = false
	if err := runCheck(writeArtifact(t, art), "", 2, 50, 10, 0.25); err == nil || !strings.Contains(err.Error(), "bitwise") {
		t.Fatalf("err = %v, want bitwise violation", err)
	}
}

func TestCheckRegressionGuard(t *testing.T) {
	base := testArtifact()
	basePath := writeArtifact(t, base)

	slow := testArtifact()
	slow.Points[0].Runs[0].NsOp *= 10 // 0.1x of baseline throughput
	slowPath := writeArtifact(t, slow)

	if err := runCheck(slowPath, basePath, 2, 50, 10, 0.25); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("err = %v, want a regression failure", err)
	}
	// The same drop passes under a forgiving enough ratio.
	if err := runCheck(slowPath, basePath, 2, 50, 10, 0.05); err != nil {
		t.Fatalf("generous ratio still failed: %v", err)
	}
}

func TestParseWorkers(t *testing.T) {
	ws, err := parseWorkers("1, 2,8")
	if err != nil || len(ws) != 3 || ws[0] != 1 || ws[1] != 2 || ws[2] != 8 {
		t.Fatalf("parseWorkers = %v, %v", ws, err)
	}
	for _, bad := range []string{"", "0", "1,x", "-2"} {
		if _, err := parseWorkers(bad); err == nil {
			t.Fatalf("parseWorkers(%q) accepted", bad)
		}
	}
}

// TestCommittedArtifactValid pins the committed repo-root BENCH_10.json to
// the checker's contract: schema, families, cells, the adaptive cell's
// point-ratio ceiling, the batch cell's speedup floor, the lease cell's
// overhead ceiling, and the obs cell's sub-1% instrumentation overhead.
func TestCommittedArtifactValid(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_10.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("committed artifact missing: %v", err)
	}
	if err := runCheck(path, "", 2, 50, 1, 0.25); err != nil {
		t.Fatal(err)
	}
}
