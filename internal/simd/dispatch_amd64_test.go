//go:build amd64 && !noasm

package simd

// wantSets is the dispatch this build must install: SSE2, the amd64
// baseline, active, with the scalar oracle selectable.
var wantSets = []string{"scalar", "sse2"}
