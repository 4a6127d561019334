package decomp

import (
	"fmt"

	"j2kcell/internal/imgmodel"
)

// This file holds the pure geometry of the paper's decomposition scheme
// (Section 2): constant-width column chunking over rows padded by the
// one padding rule, imgmodel.PadStride. It has no dependency on the
// simulated machine, so the native Go encoder
// (internal/codec) shares the exact same chunk geometry the SPE kernels
// stream — the cache-line column groups of §3.2 — without touching the
// simulator. decomp.go layers the simulated-memory Array and the DMA row
// streamer on top.

// WordsPerLine is the number of 4-byte words in one 128-byte cache
// line: the planes' row padding granule. (decomp.go statically asserts
// it equals cell.CacheLine/4.)
const WordsPerLine = imgmodel.StrideAlign

// PPEChunk marks a chunk assigned to the PPE.
const PPEChunk = -1

// Chunk is one unit of data distribution: columns [X0, X0+W) over the
// full array height, assigned to processing element PE (an SPE index,
// or PPEChunk for the remainder chunk).
type Chunk struct {
	X0, W int
	PE    int
}

// Aligned reports whether the chunk starts and sizes on cache-line
// boundaries (true for every SPE chunk produced by Partition).
func (c Chunk) Aligned() bool {
	return c.X0%WordsPerLine == 0 && c.W%WordsPerLine == 0
}

// Partition splits a width (in words) into constant-width chunks of
// chunkW words (a multiple of the cache line) distributed round-robin
// over nSPE SPEs, plus at most one remainder chunk for the PPE. With
// nSPE == 0 the whole width goes to the PPE.
func Partition(width, chunkW, nSPE int) []Chunk {
	// invariant: width is a validated image/level dimension (>= 1).
	if width <= 0 {
		panic("decomp: Partition of non-positive width")
	}
	if nSPE == 0 {
		return []Chunk{{X0: 0, W: width, PE: PPEChunk}}
	}
	// invariant: chunk widths are produced by ChunkWidthFor, which only
	// emits cache-line multiples.
	if chunkW <= 0 || chunkW%WordsPerLine != 0 {
		panic(fmt.Sprintf("decomp: chunk width %d is not a multiple of %d words", chunkW, WordsPerLine))
	}
	var chunks []Chunk
	n := width / chunkW
	for i := 0; i < n; i++ {
		chunks = append(chunks, Chunk{X0: i * chunkW, W: chunkW, PE: i % nSPE})
	}
	if rem := width - n*chunkW; rem > 0 {
		chunks = append(chunks, Chunk{X0: n * chunkW, W: rem, PE: PPEChunk})
	}
	return chunks
}

// ChunkWidthFor picks a chunk width (in words) that gives each of the
// nSPE SPEs roughly equal work while staying a multiple of the cache
// line, mirroring the paper's tuning of the column-group size. It never
// returns less than one cache line.
func ChunkWidthFor(width, nSPE int) int {
	if nSPE <= 0 {
		return imgmodel.PadStride(width)
	}
	per := width / nSPE
	cw := per / WordsPerLine * WordsPerLine
	if cw < WordsPerLine {
		cw = WordsPerLine
	}
	return cw
}

// ForPE returns the chunks assigned to processing element pe.
func ForPE(chunks []Chunk, pe int) []Chunk {
	var out []Chunk
	for _, c := range chunks {
		if c.PE == pe {
			out = append(out, c)
		}
	}
	return out
}
