//go:build amd64

package kernel

// SetHaveAVX2 overrides the AVX2 detection for the external tests and
// returns a func that restores it.
func SetHaveAVX2(v bool) (restore func()) {
	old := haveAVX2
	haveAVX2 = v
	return func() { haveAVX2 = old }
}
