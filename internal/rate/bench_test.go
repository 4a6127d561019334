package rate

import "testing"

// benchBlocks builds a PCRD workload shaped like a real lossy encode:
// one R-D ladder per code block, ~3k blocks at the paper's 3072×3072
// scale divided by 8, each with a TERMALL ladder of ~20 passes.
func benchBlocks(n int) []BlockRD {
	blocks := make([]BlockRD, n)
	for i := range blocks {
		blocks[i] = diminishing(20, uint32(i+1))
	}
	return blocks
}

// Benchmark_RateControl prices the PCRD truncation search — the
// sequential tail of the lossy pipeline (the paper's ~60% Amdahl term
// at 16 SPE).
func Benchmark_RateControl(b *testing.B) {
	blocks := benchBlocks(3000)
	budget := 0
	for _, blk := range blocks {
		budget += blk.Rates[len(blk.Rates)-1]
	}
	budget /= 10 // a constraining budget so the λ bisection runs fully
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchAllocate(blocks, budget)
	}
}

// Benchmark_RateControlHulls prices hull construction alone — the part
// PR 2 moves into the parallel Tier-1 block jobs.
func Benchmark_RateControlHulls(b *testing.B) {
	blocks := benchBlocks(3000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range blocks {
			benchHull(&blocks[j])
		}
	}
}
