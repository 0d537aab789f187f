// Package families is the attack-model family registry: the catalog of
// protocols whose selfish-mining MDPs the analysis pipeline can build and
// solve. Algorithm 1 of the paper is model-agnostic — a binary search on β
// over any MDP whose transition probabilities are parametric in the chain
// parameters — and this package supplies the "any MDP" part. Each family
// maps the shared shape parameters (Depth, Forks, MaxLen of core.Params)
// onto its own state machine and compiles it onto the protocol-agnostic
// kernel (package kernel).
//
// Registered families:
//
//   - fork: the paper's (d, f, l) fork model (package core), the primary
//     contribution and the default.
//   - singletree: the Eyal–Sirer single-tree baseline expressed as a
//     (decision-free) MDP family, cross-validated against the exact
//     renewal-reward chain analysis in package baseline.
//   - nakamoto: the classic d=1 selfish-mining state space (à la
//     Sapirshtein et al.), a cheap smoke-test family with known anchors
//     (honest revenue below the profitability threshold, the SM1 closed
//     form as a lower bound).
//
// The family identifier threads end to end: selfishmining.AttackParams
// carries it, the Service keys caches and warm-start neighborhoods by it,
// sweeps panel over it, and every CLI exposes it as -model (cmd/serve as
// the "model" JSON field plus the /v1/models discovery endpoint).
package families

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/kernel"
)

// DefaultName is the family used when no model is specified: the paper's
// fork model.
const DefaultName = "fork"

// ShapeDoc documents how a family interprets the three shared shape
// parameters.
type ShapeDoc struct {
	Depth, Forks, MaxLen string
}

// Family is one registered attack-model family. Implementations must be
// stateless and safe for concurrent use; per-instance state lives in the
// sources they build.
type Family interface {
	// Name is the registry identifier (lowercase, stable across versions).
	Name() string
	// Description is a one-line human summary for discovery endpoints.
	Description() string
	// ShapeDoc documents the family's reading of Depth/Forks/MaxLen.
	ShapeDoc() ShapeDoc
	// DefaultShape is a sensible small default (depth, forks, maxLen),
	// used by sweep defaults and discovery metadata.
	DefaultShape() (depth, forks, maxLen int)
	// Validate checks the full parameter set (chain and shape) for this
	// family.
	Validate(p core.Params) error
	// NumStates returns the size of the induced state space (validating
	// first). Families with explored state spaces may build to count.
	NumStates(p core.Params) (int, error)
	// Source builds the kernel source for validated parameters. The
	// returned source is consumed by kernel.Compile and need not be safe
	// for concurrent use.
	Source(p core.Params) (kernel.Source, error)
}

var (
	mu       sync.RWMutex
	registry = map[string]Family{}
)

// Register adds a family to the registry; duplicate names panic (families
// register from init functions, so a duplicate is a programming error).
func Register(f Family) {
	mu.Lock()
	defer mu.Unlock()
	name := f.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("families: duplicate registration of %q", name))
	}
	registry[name] = f
}

// Names returns the sorted registered family names.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns the registered families in name order.
func All() []Family {
	mu.RLock()
	defer mu.RUnlock()
	fams := make([]Family, 0, len(registry))
	for _, f := range registry {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name() < fams[j].Name() })
	return fams
}

// Get resolves a family name; the empty string means DefaultName. Unknown
// names fail with the list of valid families.
func Get(name string) (Family, error) {
	if name == "" {
		name = DefaultName
	}
	mu.RLock()
	f, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("families: unknown model family %q (valid families: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f, nil
}

// Compile resolves the family, validates p, builds the source and compiles
// it at p's chain parameters — the one-call path the serving layer uses.
func Compile(name string, p core.Params) (*kernel.Compiled, error) {
	f, err := Get(name)
	if err != nil {
		return nil, err
	}
	if err := f.Validate(p); err != nil {
		return nil, err
	}
	src, err := f.Source(p)
	if err != nil {
		return nil, err
	}
	c, err := kernel.Compile(src, p.P, p.Gamma)
	if err != nil {
		return nil, err
	}
	// The kernel retains src.BlockRate for the compiled structure's
	// lifetime; sources with heavy exploration state free it here so a
	// structure-cache entry does not carry a second copy of its own
	// transition structure.
	if r, ok := src.(interface{ releaseExploration() }); ok {
		r.releaseExploration()
	}
	return c, nil
}
