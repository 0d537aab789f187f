package kernel

import (
	"context"
	"fmt"
	"math"

	"repro/internal/par"
)

// EvalERRevTwoPass is the reference for EvalERRevCtx: the evaluator as it
// was before the two gains shared a sweep loop — one complete fixed-policy
// iteration for r_A, then another for r_A + r_H, each walking the row's
// actions up to the chosen one. The fused evaluator must match it bitwise.
// Exported from test code for the family-level tests in package kernel_test.
func (c *Compiled) EvalERRevTwoPass(ctx context.Context, policy []int, opts Options) (float64, error) {
	gainA, err := c.evalPolicyGainTwoPass(ctx, policy, true, opts)
	if err != nil {
		return 0, fmt.Errorf("kernel: evaluating adversary gain: %w", err)
	}
	gainTotal, err := c.evalPolicyGainTwoPass(ctx, policy, false, opts)
	if err != nil {
		return 0, fmt.Errorf("kernel: evaluating total gain: %w", err)
	}
	if gainTotal <= 0 {
		return 0, fmt.Errorf("kernel: total block rate %v is not positive", gainTotal)
	}
	return gainA / gainTotal, nil
}

// evalPolicyGainTwoPass runs fixed-policy relative value iteration with
// reward r_A (advOnly) or r_A + r_H.
func (c *Compiled) evalPolicyGainTwoPass(ctx context.Context, policy []int, advOnly bool, opts Options) (float64, error) {
	opts.defaults()
	n := c.NumStates()
	if len(policy) != n {
		return 0, fmt.Errorf("kernel: policy covers %d states, model has %d", len(policy), n)
	}
	var rwd [rwdTableSize]float64
	for idx := 0; idx < rwdTableSize; idx++ {
		ra := float64(idx >> (metaRAShift - metaRwdShift))
		rh := float64(idx & ((1 << (metaRAShift - metaRwdShift)) - 1))
		if advOnly {
			rwd[idx] = ra
		} else {
			rwd[idx] = ra + rh
		}
	}
	h := make([]float64, n)
	next := make([]float64, n)
	tau := damping
	resLo, resHi := math.Inf(-1), math.Inf(1)
	w := c.sweepWorkers()
	red := par.NewMinMax(par.NumChunks(n, w))
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return (resLo + resHi) / 2, fmt.Errorf("kernel: policy evaluation canceled after %d sweeps: %w", iter-1, err)
		}
		hv, nx := h, next
		par.For(n, w, func(chunk, from, to int) {
			lo, hi := math.Inf(1), math.Inf(-1)
			for s := from; s < to; s++ {
				// Walk to the policy[s]-th action of state s.
				k := c.transStart[s]
				kEnd := c.transStart[s+1]
				act := -1
				var q float64
				for ; k < kEnd; k++ {
					mv := c.meta[k]
					if mv&metaNewAction != 0 {
						act++
						if act > policy[s] {
							break
						}
					}
					if act == policy[s] {
						q += float64(c.probs[k]) * (rwd[(mv>>metaRwdShift)&metaRwdMask] + hv[c.dst[k]])
					}
				}
				d := q - hv[s]
				if d < lo {
					lo = d
				}
				if d > hi {
					hi = d
				}
				nx[s] = hv[s] + tau*d
			}
			red.Set(chunk, lo, hi)
		})
		lo, hi := red.Reduce()
		par.Shift(next, next[0], w)
		h, next = next, h
		if lo > resLo {
			resLo = lo
		}
		if hi < resHi {
			resHi = hi
		}
		if resHi-resLo < opts.Tol {
			return (resLo + resHi) / 2, nil
		}
	}
	return (resLo + resHi) / 2, fmt.Errorf("kernel: policy evaluation did not converge: bracket [%v, %v]", resLo, resHi)
}
