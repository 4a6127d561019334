//go:build !amd64 || noasm

package simd

// wantSets is the dispatch this build must install: the scalar oracle
// alone.
var wantSets = []string{"scalar"}
