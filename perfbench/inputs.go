package main

import (
	"math"
	"math/rand/v2"
	"slices"

	"repro/selfishmining"
	"repro/selfishmining/jobs"
)

// Seeded input generators. The program under test receives only what these
// return, and the same seed always gives the same inputs. Continuous
// parameters follow low-discrepancy sequences whose starting points the
// seed picks: every prefix of a list, however far a run gets, covers the
// parameter range evenly, so runs on different seeds see the same mix of
// costs and differ only in the exact points.

// epsilon is the analysis precision every workload runs at (the library
// default); the output checks are stated in terms of it.
const epsilon = 1e-4

// Additive constants of the R1 and R2 low-discrepancy sequences (the golden
// ratio and the plastic number).
const (
	r1  = 0.6180339887498949
	r2a = 0.7548776662466927
	r2b = 0.5698402909980532
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

func frac(x float64) float64 { return x - math.Floor(x) }

// pointForkInputs lists n cold full analyses of the paper's fork model at
// d=2, f=2, l=4 (3 750 states): p in [0.02, 0.35], γ in {0, .25, .5, .75, 1}.
func pointForkInputs(seed int64, n int) []selfishmining.AttackParams {
	r := newRand(seed, 1)
	u, v := r.Float64(), r.Float64()
	gammas := [...]float64{0, 0.25, 0.5, 0.75, 1}
	out := make([]selfishmining.AttackParams, n)
	for i := range out {
		out[i] = selfishmining.AttackParams{
			Adversary:  0.02 + 0.33*frac(u+float64(i)*r2a),
			Switching:  gammas[int(frac(v+float64(i)*r2b)*float64(len(gammas)))],
			Depth:      2,
			Forks:      2,
			MaxForkLen: 4,
		}
	}
	return out
}

// panelKind is one entry of the panels workload's cycle.
type panelKind struct {
	model     string
	configs   []jobs.SweepConfig
	l         int
	treeWidth int     // 0: the default single-tree baseline width (5)
	points    int     // grid points
	step      float64 // grid spacing
	start     float64 // first grid point, before the seeded offset
	adaptive  bool
}

// panelCycle is the repeating order of the panels workload: cheap and
// expensive panels interleaved, ten panels and about 280 attack-curve points
// per cycle. Runs end on a cycle boundary, so every run measures whole
// cycles and the same mix.
var panelCycle = []panelKind{
	{model: "nakamoto", points: 31, step: 0.01},
	{model: "fork", configs: []jobs.SweepConfig{{Depth: 2, Forks: 2}}, l: 5, treeWidth: 3, points: 31, step: 0.01},
	{model: "singletree", points: 31, step: 0.01},
	{model: "fork", configs: []jobs.SweepConfig{{Depth: 1, Forks: 1}}, l: 4, points: 31, step: 0.01},
	{model: "fork", configs: []jobs.SweepConfig{{Depth: 2, Forks: 2}}, l: 4, points: 7, step: 0.05, adaptive: true},
	{model: "fork", configs: []jobs.SweepConfig{{Depth: 3, Forks: 2}}, l: 4, treeWidth: 3, points: 2, step: 0.15, start: 0.15},
	{model: "nakamoto", points: 31, step: 0.01},
	{model: "fork", configs: []jobs.SweepConfig{{Depth: 2, Forks: 1}}, l: 4, points: 31, step: 0.01},
	{model: "singletree", points: 31, step: 0.01},
	{model: "fork", configs: []jobs.SweepConfig{{Depth: 2, Forks: 2}}, l: 4, points: 31, step: 0.01},
}

// panelInputs lists n panels following panelCycle; γ and a p-grid offset
// in [0, 0.01) vary per panel with the seed.
func panelInputs(seed int64, n int) []jobs.SweepSpec {
	r := newRand(seed, 2)
	u, v := r.Float64(), r.Float64()
	out := make([]jobs.SweepSpec, n)
	for i := range out {
		k := panelCycle[i%len(panelCycle)]
		off := 0.01 * frac(v+float64(i)*r2a)
		grid := make([]float64, k.points)
		for j := range grid {
			grid[j] = k.start + off + float64(j)*k.step
		}
		spec := jobs.SweepSpec{
			Model:     k.model,
			Gamma:     frac(u + float64(i)*r1),
			PGrid:     grid,
			Len:       k.l,
			TreeWidth: k.treeWidth,
			Adaptive:  k.adaptive,
		}
		if k.configs != nil {
			spec.Configs = append([]jobs.SweepConfig(nil), k.configs...)
		}
		out[i] = spec
	}
	return out
}

// sweepOptions maps a panel spec onto the library's sweep options, leaving
// everything the spec does not set at the library default.
func sweepOptions(s jobs.SweepSpec) selfishmining.SweepOptions {
	o := selfishmining.SweepOptions{
		Model:      s.Model,
		Gamma:      s.Gamma,
		PGrid:      s.PGrid,
		MaxForkLen: s.Len,
		TreeWidth:  s.TreeWidth,
		Adaptive:   s.Adaptive,
	}
	for _, c := range s.Configs {
		o.Configs = append(o.Configs, selfishmining.AttackConfig{Depth: c.Depth, Forks: c.Forks})
	}
	return o
}

// hotKey is one cached analysis of the serve-hot workload.
type hotKey struct {
	Model     string  `json:"model,omitempty"`
	P         float64 `json:"p"`
	Gamma     float64 `json:"gamma"`
	D         int     `json:"d"`
	F         int     `json:"f"`
	L         int     `json:"l"`
	BoundOnly bool    `json:"bound_only,omitempty"`
}

func (k hotKey) params() selfishmining.AttackParams {
	return selfishmining.AttackParams{Model: k.Model, Adversary: k.P, Switching: k.Gamma, Depth: k.D, Forks: k.F, MaxForkLen: k.L}
}

// numHotKeys is the serve-hot key space: three shapes × bound-only and
// full × eight (p, γ) points.
const numHotKeys = 48

// hotKeys lists the serve-hot keys in popularity order: nakamoto,
// singletree and fork d2f1l4, bound-only and full, interleaved so that
// every seed gives the shapes and modes the same popularity, at eight p in
// [0.05, 0.37]; the seed moves p within its stratum and picks γ.
func hotKeys(seed int64) []hotKey {
	r := newRand(seed, 3)
	u := r.Float64()
	shapes := []hotKey{
		{Model: "nakamoto", D: 1, F: 1, L: 20},
		{Model: "singletree", D: 1, F: 5, L: 4},
		{Model: "fork", D: 2, F: 1, L: 4},
	}
	keys := make([]hotKey, numHotKeys)
	for i := range keys {
		k := shapes[i%len(shapes)]
		k.BoundOnly = i/len(shapes)%2 == 0
		k.P = 0.05 + 0.04*(float64(i/(2*len(shapes)))+r.Float64())
		k.Gamma = frac(u + float64(i)*r1)
		keys[i] = k
	}
	return keys
}

// Kinds of serve-hot requests.
const (
	reqHot   = iota // /v1/analyze of a hot key
	reqFresh        // /v1/analyze of a never-seen bound-only point next to a hot key
	reqBatch        // /v1/analyze/batch of 8 hot keys, half of them duplicates
)

// hotRequest is one serve-hot request: keys index hotKeys (one key, or
// eight for a batch); fresh requests carry their own key.
type hotRequest struct {
	kind  int
	keys  []int
	fresh hotKey
}

// hotStream generates one connection's serve-hot request sequence: 85% a
// hot key picked Zipf(s=1.1) by popularity, 10% a fresh bound-only point
// next to a hot fork key, 5% a batch of 4 distinct hot keys plus one
// duplicate of each. Fresh points take the fork keys in turn: their solves
// stay small (the kernel should do little here), and their cost does not
// hang on which keys a seed made popular.
type hotStream struct {
	r      *rand.Rand
	zipf   *rand.Zipf
	keys   []hotKey
	conn   int
	nFresh int
}

func newHotStream(seed int64, conn int, keys []hotKey) *hotStream {
	r := newRand(seed, 5+uint64(conn))
	return &hotStream{r: r, zipf: rand.NewZipf(r, 1.1, 1, uint64(len(keys)-1)), keys: keys, conn: conn}
}

func (h *hotStream) next() hotRequest {
	x := h.r.Float64()
	switch {
	case x < 0.85:
		return hotRequest{kind: reqHot, keys: []int{int(h.zipf.Uint64())}}
	case x < 0.95:
		h.nFresh++
		k := h.keys[freshKey(h.nFresh+h.conn*numHotKeys/2)]
		// Distinct per connection and request, and far below any
		// family's parameter bounds.
		k.P += float64(h.conn<<20+h.nFresh) * 1e-9
		k.BoundOnly = true
		return hotRequest{kind: reqFresh, fresh: k}
	default:
		// Batch items must share their options, so all four draws come
		// from one mode.
		bound := h.r.IntN(2) == 0
		var picked []int
		for len(picked) < 4 {
			k := int(h.zipf.Uint64())
			if h.keys[k].BoundOnly != bound || slices.Contains(picked, k) {
				continue
			}
			picked = append(picked, k)
		}
		batch := append(picked, picked...)
		h.r.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		return hotRequest{kind: reqBatch, keys: batch}
	}
}

// freshKey maps the n-th fresh point onto a fork key: every third key,
// taken in a stride that visits all of them.
func freshKey(n int) int {
	forks := numHotKeys / 3
	return 2 + 3*(n*5%forks)
}

// jobInputs lists the serve-jobs job stream: every fourth job a sweep
// (fork 1x1 and 2x1, 16-point grid, TreeWidth 3), which checkpoints to disk
// per point, and the rest full analyses cycling nakamoto, singletree and
// fork d2f1l4. p, γ and the grid offsets come from the seed.
func jobInputs(seed int64, n int) []jobs.Request {
	r := newRand(seed, 6)
	u, v := r.Float64(), r.Float64()
	shapes := []jobs.AnalyzeSpec{
		{Model: "nakamoto", Depth: 1, Forks: 1, Len: 20},
		{Model: "singletree", Depth: 1, Forks: 5, Len: 4},
		{Model: "fork", Depth: 2, Forks: 1, Len: 4},
	}
	out := make([]jobs.Request, n)
	for i := range out {
		gamma := frac(u + float64(i)*r1)
		x := frac(v + float64(i)*r2a)
		if i%4 == 0 {
			grid := make([]float64, 16)
			for j := range grid {
				grid[j] = 0.01*x + 0.02*float64(j)
			}
			out[i] = jobs.Request{Kind: jobs.KindSweep, Sweep: &jobs.SweepSpec{
				Gamma:     gamma,
				PGrid:     grid,
				Configs:   []jobs.SweepConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}},
				Len:       4,
				TreeWidth: 3,
			}}
			continue
		}
		spec := shapes[(i-i/4-1)%len(shapes)]
		spec.P = 0.05 + 0.35*x
		spec.Gamma = gamma
		out[i] = jobs.Request{Kind: jobs.KindAnalyze, Analyze: &spec}
	}
	return out
}
