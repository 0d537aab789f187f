package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/selfishmining"
	"repro/selfishmining/jobs"
	"repro/selfishmining/obs"
)

// The library workloads run in child processes of this executable
// (-child <workload>), which print their phase as one JSON line.

func childArgs(e *env, name string) []string {
	return []string{"-child", name, "-seed", strconv.FormatInt(e.seed, 10),
		"-seconds", strconv.Itoa(e.seconds), "-work-dir", e.workDir}
}

// childMeasure runs one measured run of a library workload in a child.
func childMeasure(name string) func(e *env, traced bool) (*phase, error) {
	return func(e *env, traced bool) (*phase, error) {
		args := childArgs(e, name)
		if traced {
			args = append(args, "-traced")
		}
		var ph phase
		if err := runChildJSON(e, args, &ph); err != nil {
			return nil, err
		}
		return &ph, nil
	}
}

// childProbes runs the layer probes in a child, keeping their large
// arrays out of this process.
func childProbes(e *env) (map[string]float64, error) {
	var m map[string]float64
	err := runChildJSON(e, childArgs(e, "probes"), &m)
	return m, err
}

func runChildJSON(e *env, args []string, out any) error {
	cmd := exec.Command(e.self, args...)
	cmd.Stderr = e.log
	data, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %s: %w", args[1], err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("child %s: decoding its output: %w", args[1], err)
	}
	return nil
}

// childStart times one cold start of a library child: from exec to the
// line it prints once its package state and inputs are ready.
func childStart(name string) func(e *env) (time.Duration, error) {
	return func(e *env) (time.Duration, error) {
		cmd := exec.Command(e.self, append(childArgs(e, name), "-ready")...)
		cmd.Stderr = e.log
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		_, _ = io.Copy(io.Discard, stdout)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("child %s: %w", name, err)
		}
		if rerr != nil || strings.TrimSpace(line) != "ready" {
			return 0, fmt.Errorf("child %s: expected a ready line, got %q (%v)", name, line, rerr)
		}
		return d, nil
	}
}

// Generous input list lengths: no run gets through them in the 180 seconds
// a run may last.
const (
	pointForkInputCount = 2048
	panelInputCount     = 4096
)

// runChild is the child side: one library workload, or the probes.
func runChild(e *env, name string, ready, traced bool, stdout io.Writer) error {
	var out any
	var err error
	switch name {
	case "point-fork":
		// One caller on one core: on a two-core shared machine the second
		// core tripled the run-to-run spread of this workload, and the
		// 3 750-state sweeps gain little from it.
		runtime.GOMAXPROCS(1)
		inputs := pointForkInputs(e.seed, pointForkInputCount)
		if ready {
			break
		}
		out, err = runPointFork(e, inputs, traced)
	case "panels":
		inputs := panelInputs(e.seed, panelInputCount)
		if ready {
			break
		}
		out, err = runPanels(e, inputs, traced)
	case "probes":
		out, err = runProbes(e)
	default:
		return fmt.Errorf("-child %q: no such workload", name)
	}
	if err != nil {
		return err
	}
	if ready {
		_, err = fmt.Fprintln(stdout, "ready")
		return err
	}
	return json.NewEncoder(stdout).Encode(out)
}

// runPointFork is the point-fork workload: cold full analyses in a closed
// loop until the run's time is up.
func runPointFork(e *env, inputs []selfishmining.AttackParams, traced bool) (*phase, error) {
	ctx := context.Background()
	var tr *tracer
	var before exposition
	if traced {
		tr = newTracer()
		var err error
		if before, err = dumpRegistry(obs.Default()); err != nil {
			return nil, err
		}
	}
	ph := &phase{}
	var stepMs, sweeps []float64
	start := time.Now()
	deadline := e.deadline(start)
	for i := 0; time.Now().Before(deadline); i++ {
		p := inputs[i%len(inputs)]
		t0 := time.Now()
		op := tr.begin(0, "op", t0)
		var opts []selfishmining.Option
		if traced {
			last := t0
			opts = append(opts, selfishmining.WithProgress(func(_, _ float64, _ int) {
				now := time.Now()
				tr.add(op, "analysis.step", last, now)
				stepMs = append(stepMs, ms(now.Sub(last)))
				last = now
			}))
		}
		a, err := selfishmining.AnalyzeContext(ctx, p, opts...)
		t1 := time.Now()
		tr.end(op, t1)
		ph.Attempted++
		if err == nil {
			err = checkBracket(a.ERRev, a.ERRevUpper)
		}
		if err == nil {
			err = checkStrategy(a.ERRev, a.StrategyERRev)
		}
		if err != nil {
			ph.fail(fmt.Errorf("%v: %w", p, err))
			continue
		}
		ph.Lat = append(ph.Lat, ms(t1.Sub(t0)))
		ph.Points++
		sweeps = append(sweeps, float64(a.Sweeps))
	}
	ph.Elapsed = time.Since(start).Seconds()
	rss, err := vmMB("self", "VmHWM")
	if err != nil {
		return nil, err
	}
	ph.PeakRSSMB = rss
	if traced {
		after, err := dumpRegistry(obs.Default())
		if err != nil {
			return nil, err
		}
		ph.Layer = registryLayer(before, after)
		ph.Layer["kernel.sweeps_per_point"] = mean(sweeps)
		ph.Layer["analysis.step_ms_p50"] = percentile(stepMs, 50)
		ph.Spans = tr.all()
	}
	return ph, nil
}

// panelRun is one finished panel, checked after the timed loop.
type panelRun struct {
	spec   jobs.SweepSpec
	lat    float64
	points int
	x      []float64
	curves []curve
}

// runPanels is the panels workload: Figure-2 panels in a closed loop,
// through whole cycles of panelCycle until the run's time is up.
func runPanels(e *env, inputs []jobs.SweepSpec, traced bool) (*phase, error) {
	ctx := context.Background()
	var tr *tracer
	var before, services exposition
	if traced {
		tr = newTracer()
		var err error
		if before, err = dumpRegistry(obs.Default()); err != nil {
			return nil, err
		}
	}
	ph := &phase{}
	var runs []panelRun
	var gapMs, sweeps []float64
	start := time.Now()
	deadline := e.deadline(start)
	for i := 0; i%len(panelCycle) != 0 || time.Now().Before(deadline); i++ {
		spec := inputs[i%len(inputs)]
		opts := sweepOptions(spec)
		t0 := time.Now()
		op := tr.begin(0, "op", t0)
		sweep := selfishmining.SweepContext
		var reg *obs.Registry
		if traced {
			// SweepContext runs each panel on a fresh default Service;
			// the traced run builds that Service itself so its counters
			// can be read.
			svc := selfishmining.NewService(selfishmining.ServiceConfig{})
			reg = obs.NewRegistry()
			svc.RegisterMetrics(reg)
			sweep = svc.SweepContext
			var mu sync.Mutex
			last := t0
			opts.OnPoint = func(pt selfishmining.SweepPoint) {
				mu.Lock()
				defer mu.Unlock()
				now := time.Now()
				tr.add(op, "sweep.point", last, now)
				gapMs = append(gapMs, ms(now.Sub(last)))
				sweeps = append(sweeps, float64(pt.Sweeps))
				last = now
			}
		}
		fig, err := sweep(ctx, opts)
		t1 := time.Now()
		tr.end(op, t1)
		ph.Attempted++
		if err != nil {
			ph.fail(fmt.Errorf("panel %d (%s γ=%v): %w", i, spec.Model, spec.Gamma, err))
			continue
		}
		if reg != nil {
			s, err := dumpRegistry(reg)
			if err != nil {
				return nil, err
			}
			services = append(services, s...)
		}
		run := panelRun{spec: spec, lat: ms(t1.Sub(t0)), x: fig.X}
		for _, s := range fig.Series {
			run.curves = append(run.curves, curve{s.Name, s.Values})
			if s.Name != "honest" && !strings.HasPrefix(s.Name, "single-tree") {
				run.points += len(s.Values)
			}
		}
		runs = append(runs, run)
	}
	ph.Elapsed = time.Since(start).Seconds()
	rss, err := vmMB("self", "VmHWM")
	if err != nil {
		return nil, err
	}
	ph.PeakRSSMB = rss
	// Checked after the timed loop, so the exact single-tree analyses the
	// check runs do not take time from the panels.
	for _, r := range runs {
		if err := checkPanel(r.spec.Model, r.spec.Gamma, r.spec.Len, r.x, r.curves); err != nil {
			ph.fail(fmt.Errorf("panel %s γ=%v: %w", r.spec.Model, r.spec.Gamma, err))
			continue
		}
		ph.Lat = append(ph.Lat, r.lat)
		ph.Points += r.points
	}
	if traced {
		after, err := dumpRegistry(obs.Default())
		if err != nil {
			return nil, err
		}
		ph.Layer = registryLayer(before, append(after, services...))
		ph.Layer["kernel.sweeps_per_point"] = mean(sweeps)
		ph.Layer["sweep.point_ms_p50"] = percentile(gapMs, 50)
		ph.Spans = tr.all()
	}
	return ph, nil
}
