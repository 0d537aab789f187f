package main

import (
	"fmt"
	"math"
	"strings"

	"repro/selfishmining"
)

// Output checks. Every operation whose output fails one counts as failed,
// exactly like an operation that errors or is refused, and any failure makes
// the command exit non-zero.

// checkBracket requires the certified ERRev bracket to be at most ε wide.
func checkBracket(errev, upper float64) error {
	if !(upper-errev <= epsilon) || errev < 0 {
		return fmt.Errorf("ERRev bracket [%v, %v] is not a certified ε=%g bracket", errev, upper, epsilon)
	}
	return nil
}

// checkStrategy requires the extracted strategy's exact revenue to reach
// the certified bound within ε (a full analysis must carry one).
func checkStrategy(errev, strategyERRev float64) error {
	if !(strategyERRev >= errev-epsilon) {
		return fmt.Errorf("strategy revenue %v below the certified ERRev %v − ε", strategyERRev, errev)
	}
	return nil
}

// curve is one named series of a panel.
type curve struct {
	name   string
	values []float64
}

// checkPanel checks a Figure-2 panel. Honest mining is among the strategies
// of the fork and nakamoto families, so their attack curves must reach the
// honest curve within ε everywhere. The singletree family has no decisions
// (it always mines selfishly and can lose to honest mining), so its curve
// is compared with the exact stationary analysis of the same chain at
// three grid points instead.
func checkPanel(model string, gamma float64, l int, x []float64, curves []curve) error {
	var honest []float64
	for _, c := range curves {
		if c.name == "honest" {
			honest = c.values
		}
	}
	if honest == nil || len(honest) != len(x) {
		return fmt.Errorf("panel has no honest series over its %d points", len(x))
	}
	attacks := 0
	for _, c := range curves {
		if c.name == "honest" || strings.HasPrefix(c.name, "single-tree") {
			continue
		}
		attacks++
		if len(c.values) != len(x) {
			return fmt.Errorf("series %s has %d values for %d points", c.name, len(c.values), len(x))
		}
		if model == "singletree" {
			info, _ := selfishmining.ModelInfoFor(model)
			if l == 0 {
				l = info.DefaultMaxForkLen
			}
			for _, i := range []int{0, len(x) / 2, len(x) - 1} {
				exact, err := selfishmining.SingleTreeRevenue(x[i], gamma, l, info.DefaultForks)
				if err != nil {
					return err
				}
				if !(math.Abs(c.values[i]-exact) <= epsilon) {
					return fmt.Errorf("series %s at p=%v: %v, exact chain analysis %v", c.name, x[i], c.values[i], exact)
				}
			}
			continue
		}
		for i, v := range c.values {
			if !(v >= honest[i]-epsilon) {
				return fmt.Errorf("series %s at p=%v: %v below honest %v − ε", c.name, x[i], v, honest[i])
			}
		}
	}
	if attacks == 0 {
		return fmt.Errorf("panel has no attack series")
	}
	return nil
}

// determinism holds the first ERRev served for each serve-hot key. Every
// later answer for the key must carry the same bits: results are bitwise
// identical whether cached, coalesced, batched or solved
// (docs/ARCHITECTURE.md). The map is filled before the load starts and
// only read during it.
type determinism map[int]uint64

func (d determinism) check(key int, errev float64) error {
	want, ok := d[key]
	if !ok {
		return fmt.Errorf("key %d was never answered during warm-up", key)
	}
	if got := math.Float64bits(errev); got != want {
		return fmt.Errorf("key %d answered ERRev %v, earlier %v", key, errev, math.Float64frombits(want))
	}
	return nil
}
