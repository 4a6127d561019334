//go:build !amd64 || noasm

package simd

const wantKernel = "scalar"

// vecPrefix is how many of n elements a fallback body handles: none.
func vecPrefix(n int) int { return 0 }
