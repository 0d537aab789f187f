//go:build amd64

package kernel

import (
	"testing"
	"unsafe"
)

// TestSweepArgsOffsets pins the sweepArgs layout the assembly hard-codes.
func TestSweepArgsOffsets(t *testing.T) {
	var a sweepArgs
	for _, f := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"transStart", unsafe.Offsetof(a.transStart), 0},
		{"tp", unsafe.Offsetof(a.tp), 8},
		{"probs", unsafe.Offsetof(a.probs), 16},
		{"rwd", unsafe.Offsetof(a.rwd), 24},
		{"hv", unsafe.Offsetof(a.hv), 32},
		{"nx", unsafe.Offsetof(a.nx), 40},
		{"lo", unsafe.Offsetof(a.lo), 48},
		{"hi", unsafe.Offsetof(a.hi), 56},
		{"tau", unsafe.Offsetof(a.tau), 64},
		{"from", unsafe.Offsetof(a.from), 72},
		{"to", unsafe.Offsetof(a.to), 80},
	} {
		if f.got != f.want {
			t.Errorf("offsetof(sweepArgs.%s) = %d, assembly assumes %d", f.name, f.got, f.want)
		}
	}
	if got, want := unsafe.Sizeof(a), uintptr(88); got != want {
		t.Errorf("sizeof(sweepArgs) = %d, want %d", got, want)
	}
}
