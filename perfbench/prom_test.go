package main

import (
	"math"
	"testing"
)

func TestRegistryLayer(t *testing.T) {
	before, err := parseExposition(`# HELP analysis_runs_total Analyses.
# TYPE analysis_runs_total counter
analysis_runs_total{backend="compiled"} 2
analysis_steps_total{backend="compiled"} 20
kernel_solve_sweeps_total{variant="jacobi"} 100
cache_hits_total{cache="results"} 5
cache_misses_total{cache="results"} 5
cache_hits_total{cache="warm"} 1000
http_requests_total{route="POST /v1/analyze",method="POST",code="200"} 3
`)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(`analysis_runs_total{backend="compiled"} 4
analysis_runs_total{backend="generic"} 2
analysis_steps_total{backend="compiled"} 48
analysis_steps_total{backend="generic"} 28
kernel_solve_sweeps_total{variant="jacobi"} 300
solve_generic_sweeps_total{variant="jacobi"} 500
analysis_seconds_sum{backend="generic"} 2
analysis_seconds_sum{backend="compiled"} 2
solve_generic_seconds_sum{variant="jacobi"} 1.5
cache_hits_total{cache="results"} 35
cache_misses_total{cache="results"} 15
cache_hits_total{cache="warm"} 9000
service_solves_total 10
label_escapes{path="a \"b\", c"} 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.sum("label_escapes", "path", `a "b", c`); got != 1 {
		t.Fatalf("escaped label not matched: %v", got)
	}
	want := map[string]float64{
		"analysis.steps_per_point":   (28 + 28) / 4.0,
		"analysis.sweeps_per_step":   (200 + 500) / 56.0,
		"solve.generic_time_share":   1.5 / 4,
		"service.cached_share":       30 / 40.0,
		"service.solves_per_request": 10 / 40.0,
		"sweep.lanes_per_group":      0, // no batch groups: the layer was not entered
	}
	got := registryLayer(before, after)
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}
