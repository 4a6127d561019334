// Package decomp implements the paper's data decomposition scheme
// (Section 2, Figure 1) for two-dimensional arrays of 4-byte words.
//
// Every row is padded so that it starts cache-line (128-byte) aligned in
// simulated main memory. The array is then partitioned into column
// chunks: every chunk except the last has a width that is a multiple of
// the cache line; all chunks span the full height. Constant-width
// chunks are distributed to the SPEs and the arbitrary-width remainder
// chunk is processed by the PPE. An SPE traverses its chunk row by row,
// so one row of one chunk is the unit of DMA transfer and computation —
// always aligned, always a line multiple, with a Local Store footprint
// that is constant regardless of image size.
package decomp

import (
	"j2kcell/internal/cell"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/sim"
)

// The planes' row padding (imgmodel.StrideAlign, WordsPerLine here)
// is the simulated cache line: both array bounds are zero-length
// exactly when WordsPerLine == cell.CacheLine/4.
var (
	_ [WordsPerLine - cell.CacheLine/4]struct{}
	_ [cell.CacheLine/4 - WordsPerLine]struct{}
)

// Array is the codec's padded sample plane (imgmodel.Samples: rows
// padded to whole cache lines) placed at a line-aligned effective
// address in the simulated main memory.
type Array[T imgmodel.Sample] struct {
	imgmodel.Samples[T]
	EA int64 // effective address of Data[0]; 128-byte aligned
}

// NewArray allocates a w×h array in m's simulated main memory with
// padded rows, implementing the row-padding step of the scheme.
func NewArray[T imgmodel.Sample](m *cell.Machine, w, h int) *Array[T] {
	// invariant: array geometry comes from validated image dimensions;
	// imgmodel.New panics on anything else.
	a := &Array[T]{Samples: *imgmodel.New[T](w, h)}
	a.EA = m.AllocEA(int64(4*len(a.Data)), cell.CacheLine)
	return a
}

// PaddedRow returns the live row r including its padding words.
func (a *Array[T]) PaddedRow(r int) []T { return a.Data[r*a.Stride : (r+1)*a.Stride] }

// RowEA returns the effective address of row r — always line-aligned.
func (a *Array[T]) RowEA(r int) int64 { return a.EA + int64(4*r*a.Stride) }

// StreamRows runs a pixel-wise kernel over every row of chunk ch of src,
// writing results to the same rows/columns of dst, as an SPE would: one
// padded-width row segment per DMA get, the kernel, then a DMA put.
// depth selects the buffering level (1 = no overlap, 2 = double
// buffering, ...); the Local Store cost is depth×2 row segments
// regardless of array size — the constant-footprint property of the
// scheme. cyclesPerElem is charged to the SPE for each processed word.
//
// src and dst must have identical geometry (in-place streaming, with
// dst == src, is allowed).
func StreamRows[T imgmodel.Sample](p *sim.Proc, spe *cell.SPE, src, dst *Array[T], ch Chunk, depth int, cyclesPerElem float64, fn func(row int, buf []T)) {
	// invariant: both arrays were allocated by NewArray from the same
	// plan; mismatches are simulation-kernel bugs.
	if src.W != dst.W || src.H != dst.H || src.Stride != dst.Stride {
		panic("decomp: StreamRows geometry mismatch")
	}
	// invariant: Partition only routes aligned chunks to SPEs.
	if !ch.Aligned() {
		panic("decomp: StreamRows requires an aligned chunk; the PPE handles the remainder")
	}
	if depth < 1 {
		depth = 1
	}
	w := ch.W
	in := make([][]T, depth)
	out := make([][]T, depth)
	inLSA := make([]int64, depth)
	outLSA := make([]int64, depth)
	for i := 0; i < depth; i++ {
		in[i], inLSA[i] = cell.AllocLS[T](spe.LS, w)
		out[i], outLSA[i] = cell.AllocLS[T](spe.LS, w)
	}
	gets := make([]*sim.Completion, depth)
	puts := make([]*sim.Completion, depth)

	srcSeg := func(r int) ([]T, int64) {
		off := r*src.Stride + ch.X0
		return src.Data[off : off+w], src.EA + int64(4*off)
	}
	dstSeg := func(r int) ([]T, int64) {
		off := r*dst.Stride + ch.X0
		return dst.Data[off : off+w], dst.EA + int64(4*off)
	}

	prefetch := func(r int) {
		b := r % depth
		if puts[b] != nil {
			p.WaitFor(puts[b]) // buffer still being written back
		}
		seg, ea := srcSeg(r)
		gets[b] = cell.GetAsync(p, spe, in[b], inLSA[b], seg, ea)
	}

	for r := 0; r < depth && r < src.H; r++ {
		prefetch(r)
	}
	for r := 0; r < src.H; r++ {
		b := r % depth
		p.WaitFor(gets[b])
		copy(out[b], in[b])
		fn(r, out[b])
		spe.Compute(p, cell.Cycles(cyclesPerElem, w))
		seg, ea := dstSeg(r)
		puts[b] = cell.PutAsync(p, spe, seg, ea, out[b], outLSA[b])
		if r+depth < src.H {
			prefetch(r + depth)
		}
	}
	spe.WaitAll(p)
}

// PPERows runs the same pixel-wise kernel over a (remainder) chunk on
// the PPE: direct cached access, cost charged per element, traffic
// streamed through the shared memory interface.
func PPERows[T imgmodel.Sample](p *sim.Proc, ppe *cell.PPE, src, dst *Array[T], ch Chunk, cyclesPerElem float64, fn func(row int, buf []T)) {
	// invariant: same shared-plan geometry contract as StreamRows.
	if src.W != dst.W || src.H != dst.H || src.Stride != dst.Stride {
		panic("decomp: PPERows geometry mismatch")
	}
	tmp := make([]T, ch.W)
	for r := 0; r < src.H; r++ {
		off := r*src.Stride + ch.X0
		copy(tmp, src.Data[off:off+ch.W])
		fn(r, tmp)
		copy(dst.Data[r*dst.Stride+ch.X0:], tmp)
	}
	// Charge time once for the whole walk: read + write traffic and
	// per-element compute.
	ppe.Touch(p, int64(8*ch.W*src.H))
	ppe.Compute(p, cell.Cycles(cyclesPerElem, ch.W*src.H))
}
