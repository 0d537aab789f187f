package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/families"
	"repro/internal/kernel"
	"repro/selfishmining"
	"repro/selfishmining/jobs"
)

// Layer probes: fixed-budget measurements of single layers on fixed
// inputs, run in a child process by every traced run.

// probeShape is one compiled structure the kernel and compile probes time.
type probeShape struct {
	name    string
	model   string
	d, f, l int
}

var probeShapes = []probeShape{
	{"fork-d2f2l4", "fork", 2, 2, 4},
	{"fork-d2f2l5", "fork", 2, 2, 5},
	{"fork-d3f2l4", "fork", 3, 2, 4},
	{"nakamoto-d1f1l20", "nakamoto", 1, 1, 20},
	{"singletree-d1f5l4", "singletree", 1, 5, 4},
}

// Bytes one Jacobi sweep must move, computed from the structure's size:
// per transition its float32 probability, uint32 metadata, int32
// destination and the float64 value it gathers; per state its int64
// transition offset, the value read and written, and the shift pass's read
// and write of the new vector.
const (
	sweepBytesPerTransition = 4 + 4 + 4 + 8
	sweepBytesPerState      = 8 + 8 + 8 + 16
)

// probeStoreJobs is how much of the serve-jobs job stream the store probe
// replays.
const probeStoreJobs = 40

func runProbes(e *env) (map[string]float64, error) {
	out := map[string]float64{}
	triad, arrayMB, err := triadProbe()
	if err != nil {
		return nil, err
	}
	out["mem.triad_gbps"] = triad
	out["mem.triad_array_mb"] = arrayMB
	for _, s := range probeShapes {
		compileMs, nsPerTrans, gbps, err := kernelProbe(s)
		if err != nil {
			return nil, fmt.Errorf("kernel probe %s: %w", s.name, err)
		}
		out["families.compile_ms."+s.name] = compileMs
		out["kernel.ns_per_transition."+s.name] = nsPerTrans
		out["kernel.computed_gbps."+s.name] = gbps
		out["kernel.bw_fraction."+s.name] = ratio(gbps, triad)
	}
	putUs, putsPerJob, putKB, err := storeProbe(e)
	if err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	out["jobs.store_put_us_p50"] = putUs
	out["jobs.store_puts_per_job"] = putsPerJob
	out["jobs.store_put_kb_p50"] = putKB
	return out, nil
}

// kernelProbe compiles the shape three times (median compile time), then
// times fixed budgets of single-threaded Jacobi sweeps (median of three).
func kernelProbe(s probeShape) (compileMs, nsPerTransition, gbps float64, err error) {
	params := core.Params{P: 0.3, Gamma: 0.5, Depth: s.d, Forks: s.f, MaxLen: s.l}
	var compiles []float64
	var c *kernel.Compiled
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if c, err = families.Compile(s.model, params); err != nil {
			return 0, 0, 0, err
		}
		compiles = append(compiles, ms(time.Since(t0)))
	}
	c.SetWorkers(1)
	trans := float64(c.NumTransitions())
	// sweep runs up to n sweeps and returns how many ran. The bracket target
	// is out of reach, so a solve stops at its budget with an error that
	// says so; only a solve that did not run at all is a failure.
	sweep := func(n int) (int, error) {
		res, err := c.MeanPayoffCtx(context.Background(), 0.3, kernel.Options{Tol: 1e-300, MaxIter: n})
		if res == nil {
			return 0, err
		}
		return res.Iters, nil
	}
	if _, err := sweep(3); err != nil {
		return 0, 0, 0, err
	}
	// About 0.1 s of sweeps at a few ns per transition.
	budget := min(max(int(1e8/(4*trans)), 5), 5000)
	var perSweep []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		n, err := sweep(budget)
		d := time.Since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		perSweep = append(perSweep, float64(d.Nanoseconds())/float64(n))
	}
	ns := percentile(perSweep, 50)
	bytes := sweepBytesPerTransition*trans + sweepBytesPerState*float64(c.NumStates())
	return percentile(compiles, 50), ns / trans, bytes / ns, nil
}

// triadProbe times the triad a = b + s·c single-threaded over three float64
// arrays that together hold at least four times the last-level cache, and
// returns the best pass's bandwidth (24 bytes per element) and one array's
// size.
func triadProbe() (gbps, arrayMB float64, err error) {
	llc, err := lastLevelCache()
	if err != nil {
		return 0, 0, err
	}
	n := int(4*llc/3/8) + 1
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), float64(n-i)
	}
	best := time.Duration(1<<63 - 1)
	start := time.Now()
	for pass := 0; pass < 5 || time.Since(start) < 500*time.Millisecond; pass++ {
		t0 := time.Now()
		triad(a, b, c, 3)
		best = min(best, time.Since(t0))
	}
	if a[n/2] != b[n/2]+3*c[n/2] {
		return 0, 0, fmt.Errorf("triad produced a wrong result")
	}
	return 24 * float64(n) / float64(best.Nanoseconds()), float64(8*n) / (1 << 20), nil
}

func triad(a, b, c []float64, s float64) {
	b, c = b[:len(a)], c[:len(a)]
	for i := range a {
		a[i] = b[i] + s*c[i]
	}
}

// lastLevelCache reads the largest cache size of CPU 0 from sysfs, in bytes.
func lastLevelCache() (float64, error) {
	dirs, err := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	if err != nil {
		return 0, err
	}
	var largest float64
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := 1.0
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			continue
		}
		largest = max(largest, v*mult)
	}
	if largest == 0 {
		return 0, fmt.Errorf("no cache sizes under /sys/devices/system/cpu/cpu0/cache")
	}
	return largest, nil
}

// timedStore wraps a job store, timing every Put and sizing its record.
type timedStore struct {
	jobs.Store
	mu    sync.Mutex
	putUs []float64
	putKB []float64
}

func (s *timedStore) Put(rec *jobs.Record) error {
	t0 := time.Now()
	err := s.Store.Put(rec)
	d := time.Since(t0)
	data, merr := json.Marshal(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putUs = append(s.putUs, float64(d.Nanoseconds())/1e3)
	if merr == nil {
		s.putKB = append(s.putKB, float64(len(data))/1024)
	}
	return err
}

// storeProbe replays the start of the serve-jobs job stream through an
// in-process jobs.Manager over a timed DiskStore.
func storeProbe(e *env) (putUs, putsPerJob, putKB float64, err error) {
	dir, err := os.MkdirTemp(e.workDir, "store-probe-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	disk, err := jobs.NewDiskStore(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	store := &timedStore{Store: disk}
	mgr, err := jobs.New(selfishmining.NewService(selfishmining.ServiceConfig{}), jobs.Config{Store: store})
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if cerr := mgr.Close(ctx); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var ids []string
	for _, req := range jobInputs(e.seed, probeStoreJobs) {
		st, err := mgr.Submit(req)
		if err != nil {
			return 0, 0, 0, err
		}
		ids = append(ids, st.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			st, err := mgr.Get(id)
			if err != nil {
				return 0, 0, 0, err
			}
			if st.State.Terminal() {
				if st.State != jobs.StateDone {
					return 0, 0, 0, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				return 0, 0, 0, fmt.Errorf("job %s not done after 60s", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	store.mu.Lock()
	defer store.mu.Unlock()
	return percentile(store.putUs, 50), float64(len(store.putUs)) / probeStoreJobs, percentile(store.putKB, 50), nil
}
