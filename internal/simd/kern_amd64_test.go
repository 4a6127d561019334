//go:build amd64 && !noasm

package simd

const wantKernel = "sse2"

// vecPrefix is how many of n elements an SSE2 body handles: the
// longest whole-vector prefix.
func vecPrefix(n int) int { return n &^ 3 }
