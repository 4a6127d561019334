//go:build !amd64 || noasm

package simd

// detect on platforms without assembly kernels (or with the noasm tag)
// installs the scalar oracle as the only set.
func detect() {
	available = []*kernels{&scalarSet}
	active.Store(&scalarSet)
}
