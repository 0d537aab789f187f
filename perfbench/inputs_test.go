package main

import (
	"reflect"
	"testing"

	"repro/selfishmining/jobs"
)

func takeHot(seed int64, conn, n int) []hotRequest {
	h := newHotStream(seed, conn, hotKeys(seed))
	out := make([]hotRequest, n)
	for i := range out {
		out[i] = h.next()
	}
	return out
}

var generators = []struct {
	name string
	gen  func(seed int64) any
}{
	{"point-fork", func(s int64) any { return pointForkInputs(s, 300) }},
	{"panels", func(s int64) any { return panelInputs(s, 40) }},
	{"hot keys", func(s int64) any { return hotKeys(s) }},
	{"hot requests", func(s int64) any { return takeHot(s, 1, 1000) }},
	{"jobs", func(s int64) any { return jobInputs(s, 80) }},
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, g := range generators {
		if !reflect.DeepEqual(g.gen(7), g.gen(7)) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", g.name)
		}
		if reflect.DeepEqual(g.gen(7), g.gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", g.name)
		}
	}
}

func TestInputsAreValid(t *testing.T) {
	for _, seed := range []int64{1, 2, 1 << 40} {
		for _, p := range pointForkInputs(seed, 500) {
			if err := p.Validate(); err != nil {
				t.Fatalf("seed %d: point-fork input %v: %v", seed, p, err)
			}
			if p.Adversary < 0.02 || p.Adversary > 0.35 {
				t.Fatalf("seed %d: point-fork p=%v outside [0.02, 0.35]", seed, p.Adversary)
			}
		}
		for _, s := range panelInputs(seed, 2*len(panelCycle)) {
			if err := s.Normalize(); err != nil {
				t.Fatalf("seed %d: panel %+v: %v", seed, s, err)
			}
		}
		keys := hotKeys(seed)
		if len(keys) != numHotKeys {
			t.Fatalf("seed %d: %d hot keys, want %d", seed, len(keys), numHotKeys)
		}
		for _, k := range keys {
			if err := k.params().Validate(); err != nil {
				t.Fatalf("seed %d: hot key %+v: %v", seed, k, err)
			}
		}
		kinds := map[int]int{}
		for _, req := range takeHot(seed, 1, 4000) {
			kinds[req.kind]++
			switch req.kind {
			case reqFresh:
				if err := req.fresh.params().Validate(); err != nil || !req.fresh.BoundOnly || req.fresh.Model != "fork" {
					t.Fatalf("seed %d: fresh request %+v: %v", seed, req.fresh, err)
				}
			case reqBatch:
				count := map[int]int{}
				for _, k := range req.keys {
					count[k]++
					if keys[k].BoundOnly != keys[req.keys[0]].BoundOnly {
						t.Fatalf("seed %d: batch %v mixes bound-only and full keys", seed, req.keys)
					}
				}
				if len(req.keys) != 8 || len(count) != 4 {
					t.Fatalf("seed %d: batch %v is not 4 keys twice each", seed, req.keys)
				}
			}
		}
		if kinds[reqHot] < 3000 || kinds[reqFresh] < 250 || kinds[reqBatch] < 100 {
			t.Fatalf("seed %d: request mix %v far from 85/10/5%%", seed, kinds)
		}
		for i, r := range jobInputs(seed, 100) {
			var err error
			switch r.Kind {
			case jobs.KindAnalyze:
				err = r.Analyze.Params().Validate()
			case jobs.KindSweep:
				spec := *r.Sweep
				err = spec.Normalize()
			}
			if err != nil {
				t.Fatalf("seed %d: job %d %+v: %v", seed, i, r, err)
			}
			if wantSweep := i%4 == 0; wantSweep != (r.Kind == jobs.KindSweep) {
				t.Fatalf("seed %d: job %d is %s", seed, i, r.Kind)
			}
		}
	}
}
