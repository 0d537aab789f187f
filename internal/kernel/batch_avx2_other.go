//go:build !amd64

package kernel

import (
	"fmt"
	"runtime"
)

// asmCheck always fails off amd64: the AVX2 assembly is the only batch
// sweep, so no Batch can be built here.
func asmCheck(*Compiled) error {
	return fmt.Errorf("kernel: batched solves need the amd64 AVX2 sweep, this build is %s", runtime.GOARCH)
}

// asmSweep is never reached off amd64, where NewBatch always fails.
func (b *Batch) asmSweep(float64, *[]float64, *[]float64) func(chunk, from, to int) {
	panic("kernel: no batch sweep off amd64")
}

// DenseBatchAsm reports whether this machine runs the assembly batch
// sweep; off amd64 it never does, so NewBatch always fails.
func DenseBatchAsm() bool { return false }
