package families

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

func TestGetDefaultAndNamed(t *testing.T) {
	def, err := Get("")
	if err != nil {
		t.Fatalf("Get(\"\"): %v", err)
	}
	if def.Name() != DefaultName {
		t.Errorf("default family is %q, want %q", def.Name(), DefaultName)
	}
	for _, name := range []string{"fork", "singletree", "nakamoto"} {
		f, err := Get(name)
		if err != nil {
			t.Errorf("Get(%q): %v", name, err)
			continue
		}
		if f.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, f.Name())
		}
		if f.Description() == "" {
			t.Errorf("family %q has no description", name)
		}
		d, fk, l := f.DefaultShape()
		if err := f.Validate(core.Params{P: 0.1, Gamma: 0.5, Depth: d, Forks: fk, MaxLen: l}); err != nil {
			t.Errorf("family %q rejects its own default shape: %v", name, err)
		}
	}
}

func TestGetUnknownListsValidFamilies(t *testing.T) {
	_, err := Get("bogus")
	if err == nil {
		t.Fatal("unknown family accepted")
	}
	msg := err.Error()
	for _, name := range Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list valid family %q", msg, name)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	if len(names) < 3 {
		t.Errorf("expected at least 3 registered families, got %v", names)
	}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() has %d families, Names() %d", len(all), len(names))
	}
	for i, f := range all {
		if f.Name() != names[i] {
			t.Errorf("All()[%d] = %q, want %q", i, f.Name(), names[i])
		}
	}
}

// TestForkCompileMatchesCore: the registry's fork path must produce the
// same compiled solver as compiling core's model directly.
func TestForkCompileMatchesCore(t *testing.T) {
	params := core.Params{P: 0.3, Gamma: 0.5, Depth: 2, Forks: 1, MaxLen: 3}
	viaRegistry, err := Compile("fork", params)
	if err != nil {
		t.Fatalf("families.Compile: %v", err)
	}
	m, err := core.NewModel(params)
	if err != nil {
		t.Fatalf("core.NewModel: %v", err)
	}
	viaCore, err := kernel.Compile(m, params.P, params.Gamma)
	if err != nil {
		t.Fatalf("kernel.Compile: %v", err)
	}
	if viaRegistry.NumStates() != viaCore.NumStates() || viaRegistry.NumTransitions() != viaCore.NumTransitions() {
		t.Fatalf("structures differ: %d/%d states, %d/%d transitions",
			viaRegistry.NumStates(), viaCore.NumStates(), viaRegistry.NumTransitions(), viaCore.NumTransitions())
	}
	a, err := viaRegistry.MeanPayoffCtx(context.Background(), 0.35, kernel.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaCore.MeanPayoffCtx(context.Background(), 0.35, kernel.Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Gain != b.Gain || a.Lo != b.Lo || a.Hi != b.Hi || a.Iters != b.Iters {
		t.Errorf("registry solve (%v, %v, %v, %d) != core solve (%v, %v, %v, %d)",
			a.Gain, a.Lo, a.Hi, a.Iters, b.Gain, b.Lo, b.Hi, b.Iters)
	}
}

func TestCompileUnknownFamily(t *testing.T) {
	if _, err := Compile("bogus", core.Params{P: 0.1, Gamma: 0.5, Depth: 1, Forks: 1, MaxLen: 2}); err == nil {
		t.Fatal("Compile with unknown family succeeded")
	}
}
