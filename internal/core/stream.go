package core

import (
	"j2kcell/internal/cell"
	"j2kcell/internal/decomp"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/sim"
)

// roundUp4 pads a word count to a 16-byte DMA granule.
func roundUp4(w int) int { return (w + 3) &^ 3 }

// seg returns the live row segment [x0, x0+w) of row r and its EA.
func seg[T imgmodel.Sample](a *decomp.Array[T], r, x0, w int) ([]T, int64) {
	off := r*a.Stride + x0
	return a.Data[off : off+w], a.EA + int64(4*off)
}

// rowRing streams rows of one column range of an array through a small
// ring of Local Store buffers with asynchronous prefetch — the
// constant-footprint access pattern the decomposition scheme enables.
type rowRing[T imgmodel.Sample] struct {
	spe   *cell.SPE
	arr   *decomp.Array[T]
	x0, w int
	bufs  [][]T
	lsas  []int64
	rows  []int
	comps []*sim.Completion
}

func newRowRing[T imgmodel.Sample](spe *cell.SPE, arr *decomp.Array[T], x0, w, slots int) *rowRing[T] {
	r := &rowRing[T]{spe: spe, arr: arr, x0: x0, w: w}
	for i := 0; i < slots; i++ {
		buf, lsa := cell.AllocLS[T](spe.LS, w)
		r.bufs = append(r.bufs, buf)
		r.lsas = append(r.lsas, lsa)
		r.rows = append(r.rows, -1)
		r.comps = append(r.comps, nil)
	}
	return r
}

// prefetch starts fetching a row into its slot if not already present.
// The caller must no longer need the row previously in the slot.
func (r *rowRing[T]) prefetch(p *sim.Proc, row int) {
	slot := row % len(r.bufs)
	if r.rows[slot] == row {
		return
	}
	src, ea := seg(r.arr, row, r.x0, r.w)
	r.comps[slot] = cell.GetAsync(p, r.spe, r.bufs[slot], r.lsas[slot], src, ea)
	r.rows[slot] = row
}

// get returns the Local Store buffer holding the row, fetching and
// waiting as needed.
func (r *rowRing[T]) get(p *sim.Proc, row int) []T {
	slot := row % len(r.bufs)
	if r.rows[slot] != row {
		r.prefetch(p, row)
	}
	if c := r.comps[slot]; c != nil {
		p.WaitFor(c)
	}
	return r.bufs[slot]
}

// putRing manages output buffers whose puts must complete before reuse.
type putRing[T imgmodel.Sample] struct {
	spe   *cell.SPE
	bufs  [][]T
	lsas  []int64
	comps []*sim.Completion
}

func newPutRing[T imgmodel.Sample](spe *cell.SPE, w, slots int) *putRing[T] {
	r := &putRing[T]{spe: spe}
	for i := 0; i < slots; i++ {
		buf, lsa := cell.AllocLS[T](spe.LS, w)
		r.bufs = append(r.bufs, buf)
		r.lsas = append(r.lsas, lsa)
		r.comps = append(r.comps, nil)
	}
	return r
}

// acquire returns slot k's buffer, waiting out any in-flight put.
func (r *putRing[T]) acquire(p *sim.Proc, k int) []T {
	slot := k % len(r.bufs)
	if c := r.comps[slot]; c != nil {
		p.WaitFor(c)
		r.comps[slot] = nil
	}
	return r.bufs[slot]
}

// put writes slot k's buffer to the row segment asynchronously.
func (r *putRing[T]) put(p *sim.Proc, k int, a *decomp.Array[T], row, x0 int) {
	slot := k % len(r.bufs)
	dst, ea := seg(a, row, x0, len(r.bufs[slot]))
	r.comps[slot] = cell.PutAsync(p, r.spe, dst, ea, r.bufs[slot], r.lsas[slot])
}

// peek returns slot k's buffer without synchronization (contents remain
// valid during an outstanding put).
func (r *putRing[T]) peek(k int) []T { return r.bufs[k%len(r.bufs)] }

// streamCopy moves rows [0, n) of src columns [x0, x0+w) to rows
// [dstRow0, ...) of dst, optionally transforming each buffer — the
// auxiliary-buffer copy-back pass of the fused vertical DWT.
func streamCopy[T imgmodel.Sample](p *sim.Proc, spe *cell.SPE, src, dst *decomp.Array[T], x0, w, n, dstRow0 int, depth int, perElem float64, fn func([]T)) {
	if n <= 0 {
		return
	}
	in := newRowRing[T](spe, src, x0, w, depth+1)
	out := newPutRing[T](spe, w, depth)
	for k := 0; k < depth && k < n; k++ {
		in.prefetch(p, k)
	}
	for k := 0; k < n; k++ {
		buf := in.get(p, k)
		if k+depth < n {
			in.prefetch(p, k+depth)
		}
		ob := out.acquire(p, k)
		copy(ob, buf)
		if fn != nil {
			fn(ob)
			spe.Compute(p, cell.Cycles(perElem, w))
		}
		out.put(p, k, dst, dstRow0+k, x0)
	}
	spe.WaitAll(p)
}

// alignedFetchCost charges the DMA cost of fetching an arbitrary
// (possibly misaligned) row window by transferring its 16-byte-aligned
// superset, the way real SPE code must. Returns nothing; the data is
// used directly from main memory by the caller's computation.
func alignedFetchCost[T imgmodel.Sample](p *sim.Proc, spe *cell.SPE, a *decomp.Array[T], row, x0, w int, scratch []T, scratchLSA int64) {
	off := row*a.Stride + x0
	ea := a.EA + int64(4*off)
	ea0 := ea &^ 15
	end := (ea + int64(4*w) + 15) &^ 15
	words := int(end-ea0) / 4
	srcOff := int(ea0-a.EA) / 4
	cell.Get(p, spe, scratch[:words], scratchLSA, a.Data[srcOff:srcOff+words], ea0)
}
