package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/selfishmining/obs"
)

// sample is one series of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// exposition is a parsed /metrics scrape (or in-process registry dump),
// the program's own counters that the per-layer ratios are computed from.
type exposition []sample

// parseExposition reads the Prometheus text format that internal/obs
// renders: comment lines, then `name{k="v",...} value` per series.
func parseExposition(text string) (exposition, error) {
	var out exposition
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("exposition line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		s := sample{name: line[:cut], value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			if s.labels, err = parseLabels(s.name[open+1 : len(s.name)-1]); err != nil {
				return nil, fmt.Errorf("exposition line %q: %w", line, err)
			}
			s.name = s.name[:open]
		}
		out = append(out, s)
	}
	return out, nil
}

// parseLabels reads `k="v",k2="v2"` with the exposition's escapes.
func parseLabels(s string) (map[string]string, error) {
	labels := make(map[string]string)
	for s != "" {
		eq := strings.Index(s, `="`)
		if eq < 0 {
			return nil, fmt.Errorf("label list %q: missing =\"", s)
		}
		key := s[:eq]
		s = s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[i])
		}
		if i == len(s) {
			return nil, fmt.Errorf("label %s: unterminated value", key)
		}
		labels[key] = val.String()
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return labels, nil
}

// sum adds up the series named name whose labels include every key/value
// pair of match (given as alternating keys and values).
func (e exposition) sum(name string, match ...string) float64 {
	var total float64
outer:
	for _, s := range e {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				continue outer
			}
		}
		total += s.value
	}
	return total
}

// max returns the largest value of the series named name (0 if absent).
func (e exposition) max(name string) float64 {
	var m float64
	for _, s := range e {
		if s.name == name && s.value > m {
			m = s.value
		}
	}
	return m
}

// dumpRegistry renders an in-process registry as an exposition.
func dumpRegistry(r *obs.Registry) (exposition, error) {
	var buf bytes.Buffer
	r.WriteProm(&buf)
	return parseExposition(buf.String())
}

// registryLayer derives the per-layer ratios that the program's own
// counters answer, from two expositions taken around a workload run.
func registryLayer(before, after exposition) map[string]float64 {
	d := func(name string, match ...string) float64 {
		return after.sum(name, match...) - before.sum(name, match...)
	}
	steps := d("analysis_steps_total")
	lookups := d("cache_hits_total", "cache", "results") + d("cache_misses_total", "cache", "results")
	points := d("service_sweep_points_total")
	warmHits := d("service_warm_hits_total")
	return map[string]float64{
		"analysis.steps_per_point":   ratio(steps, d("analysis_runs_total")),
		"analysis.sweeps_per_step":   ratio(d("kernel_solve_sweeps_total")+d("solve_generic_sweeps_total"), steps),
		"solve.generic_time_share":   ratio(d("solve_generic_seconds_sum"), d("analysis_seconds_sum")),
		"sweep.lanes_per_group":      ratio(d("sweep_batch_group_lanes_total"), d("sweep_batch_groups_total")),
		"sweep.solo_point_share":     ratio(d("sweep_batch_solo_points_total"), points),
		"sweep.refined_point_share":  ratio(d("sweep_refine_points_total"), points),
		"sweep.warm_hit_ratio":       ratio(warmHits, warmHits+d("service_warm_misses_total")),
		"service.cached_share":       ratio(d("cache_hits_total", "cache", "results"), lookups),
		"service.coalesced_share":    ratio(d("service_coalesced_total"), lookups),
		"service.solves_per_request": ratio(d("service_solves_total"), lookups),
	}
}
