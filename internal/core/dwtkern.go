package core

import (
	"j2kcell/internal/cell"
	"j2kcell/internal/decomp"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/sim"
)

// SPE kernels for the DWT stages. Vertical filtering streams one row of
// the assigned column group per DMA transfer (the paper's tuned column
// grouping), runs the interleaved lifting steps merged with the
// splitting step (Algorithms 1→2 + Figure 3), writes low rows in place
// and high rows to a main-memory auxiliary buffer, then copies the
// buffer into the bottom half. Horizontal filtering streams whole rows.
// Every arithmetic step is the same exported dwt row primitive the
// sequential reference uses, so outputs are bit-identical.

// vertical53SPE runs the fused 5/3 vertical sweep over one column
// group, charging cost cycles per sample.
func (e *encoder) vertical53SPE(p *sim.Proc, spe *cell.SPE, arr *decomp.Array[int32], ch decomp.Chunk, lh int, cost float64) {
	if lh <= 1 {
		return
	}
	nl, nh := (lh+1)/2, lh/2
	in := newRowRing[int32](spe, arr, ch.X0, ch.W, 5)
	dOut := newPutRing[int32](spe, ch.W, 2)
	sOut := newPutRing[int32](spe, ch.W, 2)

	in.prefetch(p, 0)
	if lh > 1 {
		in.prefetch(p, 1)
	}
	if lh > 2 {
		in.prefetch(p, 2)
	}
	for k := 0; k < nh; k++ {
		e0 := in.get(p, 2*k)
		o := in.get(p, 2*k+1)
		e1 := e0
		if 2*k+2 < lh {
			e1 = in.get(p, 2*k+2)
		}
		for pf := 2*k + 3; pf <= 2*k+4 && pf < lh; pf++ {
			in.prefetch(p, pf)
		}
		d := dOut.acquire(p, k)
		dPrev := d
		if k > 0 {
			dPrev = dOut.peek(k - 1)
		}
		s := sOut.acquire(p, k)
		dwt.Fused53Step(d, s, e0, o, e1, dPrev)
		spe.Compute(p, cell.Cycles(cost, 2*ch.W))
		sOut.put(p, k, arr, k, ch.X0)
		dOut.put(p, k, e.iaux, k, ch.X0)
	}
	if nl > nh { // odd height tail
		e0 := in.get(p, lh-1)
		s := sOut.acquire(p, nl-1)
		dwt.Fused53Tail(s, e0, dOut.peek(nh-1))
		spe.Compute(p, cell.Cycles(cost, ch.W))
		sOut.put(p, nl-1, arr, nl-1, ch.X0)
	}
	spe.WaitAll(p)
	if e.cfg.NaiveDWT {
		e.extraSweeps(p, spe, arr.EA, arr.Stride, ch, lh, 2)
	}
	// Copy the high rows from the auxiliary buffer to the bottom half.
	spe.LS.Reset()
	streamCopy(p, spe, e.iaux, arr, ch.X0, ch.W, nh, nl, e.cfg.BufferDepth, 0, nil)
}

// vertical97SPE runs the fused single-loop 9/7 sweep (Kutil-style: six
// passes fused to one) over one column group, charging cost cycles per
// sample.
func (e *encoder) vertical97SPE(p *sim.Proc, spe *cell.SPE, arr *decomp.Array[float32], ch decomp.Chunk, lh int, cost float64) {
	if lh <= 1 {
		return
	}
	nl, nh := (lh+1)/2, lh/2
	in := newRowRing[float32](spe, arr, ch.X0, ch.W, 5)
	dd := newPutRing[float32](spe, ch.W, 4) // d1/d2 values; puts go to aux
	ee := newPutRing[float32](spe, ch.W, 3) // e1/e2 values; puts go to arr

	in.prefetch(p, 0)
	if lh > 1 {
		in.prefetch(p, 1)
	}
	if lh > 2 {
		in.prefetch(p, 2)
	}
	step3 := func(k int) { // d2[k] = d1[k] + γ(e1[k] + e1[k+1]); put to aux
		eNext := k + 1
		if eNext > nl-1 {
			eNext = nl - 1
		}
		d := dd.peek(k)
		dwt.Lift97(d, ee.peek(k), ee.peek(eNext), float32(dwt.Gamma97))
		dd.put(p, k, e.faux, k, ch.X0)
	}
	step4 := func(k int) { // e2[k] = (e1[k] + δ(d2[k-1]+d2[k]))/K; put to arr
		dPrev := k - 1
		if dPrev < 0 {
			dPrev = 0
		}
		s := ee.peek(k)
		dwt.Fused97Step4(s, dd.peek(dPrev), dd.peek(k))
		ee.put(p, k, arr, k, ch.X0)
	}

	for k := 0; k < nh; k++ {
		e0 := in.get(p, 2*k)
		o := in.get(p, 2*k+1)
		e1 := e0
		if 2*k+2 < lh {
			e1 = in.get(p, 2*k+2)
		}
		for pf := 2*k + 3; pf <= 2*k+4 && pf < lh; pf++ {
			in.prefetch(p, pf)
		}
		d := dd.acquire(p, k)
		dwt.Fused97Step1(d, e0, o, e1)
		dPrev := k - 1
		if dPrev < 0 {
			dPrev = 0
		}
		s := ee.acquire(p, k)
		dwt.Fused97Step2(s, e0, dd.peek(dPrev), d)
		if k > 0 {
			step3(k - 1)
		}
		if k > 1 {
			step4(k - 2)
		}
		spe.Compute(p, cell.Cycles(cost, 2*ch.W))
	}
	if nl > nh {
		s := ee.acquire(p, nl-1)
		dwt.Fused97Step2Tail(s, in.get(p, lh-1), dd.peek(nh-1))
		spe.Compute(p, cell.Cycles(cost, ch.W))
	}
	step3(nh - 1)
	if nh >= 2 {
		step4(nh - 2)
	}
	step4(nh - 1)
	if nl > nh {
		s := ee.peek(nl - 1)
		dwt.Fused97Step4Tail(s, dd.peek(nh-1))
		ee.put(p, nl-1, arr, nl-1, ch.X0)
	}
	spe.WaitAll(p)
	if e.cfg.NaiveDWT {
		e.extraSweeps(p, spe, arr.EA, arr.Stride, ch, lh, 5)
	}
	// Copy-back pass delivers the high rows with their K scaling.
	spe.LS.Reset()
	streamCopy(p, spe, e.faux, arr, ch.X0, ch.W, nh, nl, e.cfg.BufferDepth, 0.5,
		func(buf []float32) { dwt.Fused97ScaleHigh(buf, buf) })
}

// extraSweeps charges the DMA traffic of the un-fused variant: n
// additional full get+put sweeps over the column group (split and
// lifting as separate passes). The arithmetic already happened in the
// fused kernel, so these sweeps move the final data — byte counts and
// timing match the naive schedule while outputs stay identical.
func (e *encoder) extraSweeps(p *sim.Proc, spe *cell.SPE, ea int64, stride int, ch decomp.Chunk, lh, n int) {
	buf, lsa := cell.AllocLS[int32](spe.LS, ch.W)
	scratch := make([]int32, ch.W)
	for s := 0; s < n; s++ {
		for r := 0; r < lh; r++ {
			rowEA := ea + int64(4*(r*stride+ch.X0))
			c1 := cell.GetAsync(p, spe, buf, lsa, scratch, rowEA)
			p.WaitFor(c1)
			p.WaitFor(cell.PutAsync(p, spe, scratch, rowEA, buf, lsa))
		}
	}
}

// horizontalSPE streams rows [r0, r1) through k's 1-D analysis.
func horizontalSPE[T imgmodel.Sample](p *sim.Proc, spe *cell.SPE, e *encoder, k dwt.Lifting[T], arr *decomp.Array[T], r0, r1, lw int, cost float64) {
	if lw <= 1 || r0 >= r1 {
		return
	}
	w := roundUp4(lw)
	depth := e.cfg.BufferDepth
	in := newRowRing[T](spe, arr, 0, w, depth+1)
	out := newPutRing[T](spe, w, depth)
	tmp, _ := cell.AllocLS[T](spe.LS, lw)
	for r := r0; r < r0+depth && r < r1; r++ {
		in.prefetch(p, r)
	}
	for r := r0; r < r1; r++ {
		buf := in.get(p, r)
		if r+depth < r1 {
			in.prefetch(p, r+depth)
		}
		ob := out.acquire(p, r)
		copy(ob, buf)
		k.Rows(ob, lw, w, 0, 1, tmp)
		spe.Compute(p, cell.Cycles(cost, lw))
		out.put(p, r, arr, r, 0)
	}
	spe.WaitAll(p)
}

// --- PPE fallbacks: the remainder column group and remainder rows run
// directly on the PPE with the same arithmetic. ---

// verticalPPE runs k's fused vertical sweep over columns [x0, x0+w).
func verticalPPE[T imgmodel.Sample](p *sim.Proc, pe *cell.PPE, k dwt.Lifting[T], arr *decomp.Array[T], x0, w, lh int, cost float64) {
	if lh <= 1 || w <= 0 {
		return
	}
	k.Vertical(arr.Data, x0, w, lh, arr.Stride, make([]T, dwt.AuxLen(w, lh)))
	pe.Compute(p, cell.Cycles(cost, w*lh))
	pe.Touch(p, int64(4*w*lh*3)) // read + write + aux traffic
}

// horizontalPPE filters rows [r0, r1) directly.
func horizontalPPE[T imgmodel.Sample](p *sim.Proc, pe *cell.PPE, k dwt.Lifting[T], arr *decomp.Array[T], r0, r1, lw int, cost float64) {
	if lw <= 1 || r0 >= r1 {
		return
	}
	k.Rows(arr.Data, lw, arr.Stride, r0, r1, make([]T, lw))
	pe.Compute(p, cell.Cycles(cost, lw*(r1-r0)))
	pe.Touch(p, int64(8*lw*(r1-r0)))
}
