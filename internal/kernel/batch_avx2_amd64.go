//go:build amd64

package kernel

import (
	"errors"
	"fmt"
)

// The 8-lane AVX2 batched sweep, the only batch sweep body. The vector
// code performs, per lane, exactly the solo Jacobi sweep's floating-point
// sequence — elementwise VADDPD/VMULPD/VSUBPD and one float32→float64
// VCVTPS2PD are IEEE-identical to their scalar counterparts, no FMA
// contraction is used (it would change rounding), and every max/min is a
// VCMPPD($GT_OQ/$LT_OQ) + VBLENDVPD pair replicating Go's `if x > y` NaN
// semantics bit for bit — so the kernel's bitwise contract (lane == solo
// Jacobi solve) holds, pinned lane by lane against the solo kernel.

// sweepArgs is the argument block for sweep8AVX2. Field offsets are
// hard-coded in batch_avx2_amd64.s and pinned by TestSweepArgsOffsets.
type sweepArgs struct {
	transStart *int64   // CSR row starts, len n+1
	tp         *uint64  // packed transition program (buildTransProgram)
	probs      *float32 // lane-major probabilities, 8 per transition
	rwd        *float64 // lane-major β-view reward table, 8 per row
	hv         *float64 // lane-major current values, 8 per state
	nx         *float64 // lane-major next values, 8 per state
	lo, hi     *float64 // this chunk's 8 bracket extrema outputs
	tau        float64  // damping mix
	from, to   int64    // state range [from, to)
}

// sweep8AVX2 runs states [from, to) of one dense 8-lane sweep.
//
//go:noescape
func sweep8AVX2(a *sweepArgs)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

var haveAVX2 = detectAVX2()

// detectAVX2 reports AVX2 with OS-saved YMM state, via raw CPUID/XGETBV
// (the stdlib's internal/cpu is not importable). The sweep itself only
// needs AVX, but gating on AVX2 keeps us on hardware modern enough that
// the 256-bit path is a win.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if ecx&osxsaveAndAVX != osxsaveAndAVX {
		return false
	}
	if eax, _ := xgetbv(); eax&0x6 != 0x6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0 // AVX2
}

// DenseBatchAsm reports whether this machine runs the assembly batch
// sweep, and so whether NewBatch can succeed at all.
func DenseBatchAsm() bool { return haveAVX2 }

// maxAsmStates bounds the models the packed transition program can
// address: destination byte offsets (state*64) must fit the word's high
// 32 bits.
const maxAsmStates = 1 << 26

// asmCheck reports why the assembly sweep cannot run over c's structure
// on this machine, or nil when it can.
func asmCheck(c *Compiled) error {
	if !haveAVX2 {
		return errors.New("kernel: batched solves need the AVX2 sweep, and this CPU lacks AVX2")
	}
	if n := c.NumStates(); n >= maxAsmStates {
		return fmt.Errorf("kernel: batched solves address fewer than %d states, model has %d", maxAsmStates, n)
	}
	return nil
}

// buildTransProgram packs each transition's sweep-ready operands into one
// word, built once per Batch and shared by every solve: the destination
// row's byte offset (state*64, the 8-lane float64 stride) in the high
// half, the reward row's byte offset in bits 6..31, and the new-action
// flag in bit 0. The assembly sweep then advances two pointers per
// transition (probs +32B, program +8B) instead of decoding meta.
func (b *Batch) buildTransProgram() {
	if b.tp != nil {
		return
	}
	c := b.c
	tp := make([]uint64, len(c.meta))
	for t, mv := range c.meta {
		e := uint64(c.dst[t])*64<<32 | uint64((mv>>metaRwdShift)&metaRwdMask)*64
		if mv&metaNewAction != 0 {
			e |= 1
		}
		tp[t] = e
	}
	b.tp = tp
}

// asmSweep returns the 8-lane assembly sweep body over b's structure.
// hvp/nxp indirect through the caller's swap variables.
func (b *Batch) asmSweep(tau float64, hvp, nxp *[]float64) func(chunk, from, to int) {
	c := b.c
	b.buildTransProgram()
	args := sweepArgs{
		transStart: &c.transStart[0],
		tp:         &b.tp[0],
		probs:      &b.probs[0],
		rwd:        &b.rwd[0],
		tau:        tau,
	}
	return func(chunk, from, to int) {
		hv, nx := *hvp, *nxp
		a := args
		a.hv = &hv[0]
		a.nx = &nx[0]
		a.lo = &b.los[chunk*DenseBatchWidth]
		a.hi = &b.his[chunk*DenseBatchWidth]
		a.from = int64(from)
		a.to = int64(to)
		sweep8AVX2(&a)
	}
}
