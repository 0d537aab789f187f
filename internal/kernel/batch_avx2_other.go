//go:build !amd64

package kernel

// asmSweep has no implementation off amd64; the dense 8-lane path runs
// the scalar makeSweep8 specialization instead.
func (b *Batch) asmSweep(tau float64, hvp, nxp *[]float64) (func(chunk, from, to int), bool) {
	return nil, false
}

// asmFits reports whether the assembly sweep can run; off amd64 it never
// can, so batches are never padded.
func asmFits(*Compiled) bool { return false }

// DenseBatchAsm reports whether this machine runs the assembly dense
// sweep; off amd64 it never does.
func DenseBatchAsm() bool { return false }
