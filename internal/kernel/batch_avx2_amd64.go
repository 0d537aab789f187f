//go:build amd64

package kernel

// AVX2 acceleration of the dense 8-lane batched sweep. The vector code
// performs, per lane, exactly the scalar sweep's floating-point sequence —
// elementwise VADDPD/VMULPD/VSUBPD and one float32→float64 VCVTPS2PD are
// IEEE-identical to their scalar counterparts, no FMA contraction is used
// (it would change rounding), and every max/min is a VCMPPD($GT_OQ/$LT_OQ)
// + VBLENDVPD pair replicating Go's `if x > y` NaN semantics bit for bit —
// so the kernel's bitwise contract (lane == solo Jacobi solve) holds on
// the assembly path too, and the same bitwise pins cover it on amd64.

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

// DenseBatchAsm reports whether this machine runs the assembly dense
// sweep, the one place an 8-lane batch beats solo solves by a wide margin.
func DenseBatchAsm() bool { return haveAVX2 }

// maxAsmStates bounds the models the packed transition program can
// address: destination byte offsets (state*64) must fit the word's high
// 32 bits.
const maxAsmStates = 1 << 26

// asmFits reports whether the assembly sweep can run over c's structure
// on this machine.
func asmFits(c *Compiled) bool {
	return haveAVX2 && len(c.meta) > 0 && c.NumStates() < maxAsmStates
}

// asmSweep returns the dense 8-lane assembly sweep body, or false when
// the hardware, the lane count or the model shape rules it out (then the
// scalar makeSweep8 specialization or the generic sweep runs instead).
func (b *Batch) asmSweep(tau float64, hvp, nxp *[]float64) (func(chunk, from, to int), bool) {
	c := b.c
	if b.k != denseLaneWidth || !asmFits(c) {
		return nil, false
	}
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
		a.lo = &b.los[chunk*denseLaneWidth]
		a.hi = &b.his[chunk*denseLaneWidth]
		a.from = int64(from)
		a.to = int64(to)
		sweep8AVX2(&a)
	}, true
}
