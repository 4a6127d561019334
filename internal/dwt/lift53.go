package dwt

import "j2kcell/internal/simd"

// Row-vector lifting primitives for the reversible 5/3 transform. Each
// treats whole rows as the "samples" of the lifting recurrence; the SPE
// kernels in internal/core reuse these on Local Store buffers so the
// parallel encoder is arithmetic-identical to this reference. The row
// bodies run through the simd kernel layer; the vector forms use
// the same wrapping adds and arithmetic shifts, so they are exact.

// Lift53High applies d[i] -= (e0[i] + e1[i]) >> 1 (first lifting step).
func Lift53High(d, e0, e1 []int32) {
	simd.SubShr1Row(d, d, e0, e1)
}

// Lift53Low applies s[i] += (d0[i] + d1[i] + 2) >> 2 (second step).
func Lift53Low(s, d0, d1 []int32) {
	simd.AddShr2Row(s, s, d0, d1)
}

// Fused53Step computes one step of the merged split+interleaved-lifting
// sweep (the body of the paper's Algorithm 2 with the splitting step
// folded in): given interleaved rows e0 = x[2k], o = x[2k+1], e1 =
// x[2k+2] (already boundary-clamped) and the previous high row dPrev
// (= d for k == 0), it writes d[i] = o[i] - ((e0[i]+e1[i])>>1) into d
// and s[i] = e0[i] + ((dPrev[i]+d[i]+2)>>2) into s. s may alias e0.
// The SPE kernels stream exactly this step, so the parallel encoder is
// arithmetic-identical to the sequential one.
func Fused53Step(d, s, e0, o, e1, dPrev []int32) {
	simd.SubShr1Row(d, o, e0, e1)
	simd.AddShr2Row(s, e0, dPrev, d)
}

// Vertical53Naive performs vertical 5/3 analysis on the w×h region the
// obvious way: an explicit splitting pass that deinterleaves even and
// odd rows (via the aux buffer), then the two lifting passes of the
// paper's Algorithm 1. Three full sweeps over the data — the form whose
// DMA traffic the fused variant cuts to one sweep.
// aux must hold at least ((h+1)/2)*w words.
func Vertical53Naive(data []int32, w, h, stride int, aux []int32) {
	if h <= 1 {
		return
	}
	nl, nh := (h+1)/2, h/2
	row := func(i int) []int32 { return data[i*stride : i*stride+w] }
	auxRow := func(k int) []int32 { return aux[k*w : (k+1)*w] }

	// Splitting pass: odd rows to aux, even rows compacted to the top,
	// aux copied to the bottom half.
	for k := 0; k < nh; k++ {
		copy(auxRow(k), row(2*k+1))
	}
	for k := 1; k < nl; k++ {
		copy(row(k), row(2*k))
	}
	for k := 0; k < nh; k++ {
		copy(row(nl+k), auxRow(k))
	}
	// First lifting pass (Algorithm 1, step 1).
	for k := 0; k < nh; k++ {
		e1 := k + 1
		if e1 > nl-1 {
			e1 = nl - 1
		}
		Lift53High(row(nl+k), row(k), row(e1))
	}
	// Second lifting pass (Algorithm 1, step 2).
	for k := 0; k < nl; k++ {
		d0, d1 := k-1, k
		if d0 < 0 {
			d0 = 0
		}
		if d1 > nh-1 {
			d1 = nh - 1
		}
		Lift53Low(row(k), row(nl+d0), row(nl+d1))
	}
}

// Vertical53Fused performs the same vertical analysis in a single sweep
// over the data: the splitting step is merged into the interleaved
// lifting loop (Algorithm 2 + Figure 3). High-pass rows are written to
// the auxiliary buffer first — updating them in place would overwrite
// interleaved input rows before they are read — and copied into the
// bottom half afterwards, so the extra traffic is only half the data.
// Bit-identical to Vertical53Naive.
func Vertical53Fused(data []int32, w, h, stride int, aux []int32) {
	if h <= 1 {
		return
	}
	nl, nh := (h+1)/2, h/2
	row := func(i int) []int32 { return data[i*stride : i*stride+w] }
	auxRow := func(k int) []int32 { return aux[k*w : (k+1)*w] }

	for k := 0; k < nh; k++ {
		e0 := row(2 * k)
		o := row(2*k + 1)
		e1 := e0 // mirror x[h] -> x[h-2] when 2k+2 == h
		if 2*k+2 < h {
			e1 = row(2*k + 2)
		}
		dPrev := auxRow(k) // d[-1] clamps to d[0]
		if k > 0 {
			dPrev = auxRow(k - 1)
		}
		Fused53Step(auxRow(k), row(k), e0, o, e1, dPrev)
	}
	if nl > nh { // odd height: final low row, d clamps to d[nh-1]
		Fused53Tail(row(nl-1), row(h-1), auxRow(nh-1))
	}
	for k := 0; k < nh; k++ {
		copy(row(nl+k), auxRow(k))
	}
}

// Fused53Tail computes the final low row of an odd-height sweep:
// s[i] = e0[i] + ((2*d[i]+2)>>2), the d index clamped to the last high
// row. s may alias e0.
// Routing through the shared kernel with d0 = d1 = d is exact:
// d+d+2 == 2*d+2 under two's-complement wrap.
func Fused53Tail(s, e0, d []int32) {
	simd.AddShr2Row(s, e0, d, d)
}

// inverseVertical53 exactly reverses the vertical analysis in one
// top-down sweep, the 5/3 form of inverseVertical97: the lows are
// copied to aux, then step i undoes the low step at L[i] and the high
// step at H[i−1], writing straight into output row 2(i−1)+1, and copies
// the finished L[i−1] to row 2(i−1). Every write lands on a row whose
// input has been consumed.
func inverseVertical53(data []int32, w, h, stride int, aux []int32) {
	if h <= 1 {
		return
	}
	nl, nh := (h+1)/2, h/2
	row := func(i int) []int32 { return data[i*stride : i*stride+w] }
	low := func(k int) []int32 { k = min(k, nl-1); return aux[k*w : (k+1)*w] }
	high := func(k int) []int32 { return row(nl + min(max(k, 0), nh-1)) }
	for k := 0; k < nl; k++ {
		copy(low(k), row(k))
	}
	for i := 0; i <= nl; i++ {
		if i < nl {
			simd.SubShr2Row(low(i), low(i), high(i-1), high(i))
		}
		if j := i - 1; j >= 0 {
			if j < nh {
				simd.AddShr1Row(row(2*j+1), high(j), low(j), low(j+1))
			}
			copy(row(2*j), low(j))
		}
	}
}

// Fwd53Line performs 1-D 5/3 analysis on x (any length), deinterleaving
// through scratch tmp (at least len(x) long) and lifting back into x:
// lows then highs. This is the horizontal filter applied to one image
// row; both lifting steps are row-kernel sweeps.
func Fwd53Line(x []int32, tmp []int32) {
	n := len(x)
	if n <= 1 {
		return
	}
	nl, nh := (n+1)/2, n/2
	even, odd := tmp[:nl], tmp[nl:n]
	simd.Deinterleave2Row(even, odd, x)
	if nl > nh {
		even[nl-1] = x[n-1]
	}
	highStep(x[nl:n], odd, even, fwdHigh53)
	lowStep(x[:nl], even, x[nl:n], fwdLow53)
}

// Inv53Line reverses Fwd53Line through the same lifting sweeps and a
// vector interleave. Bit-identical to the plain loop form: the kernels
// perform the same wrapping adds and arithmetic shifts elementwise.
func Inv53Line(x []int32, tmp []int32) {
	n := len(x)
	if n <= 1 {
		return
	}
	nl, nh := (n+1)/2, n/2
	even, odd := tmp[:nl], tmp[nl:n]
	lowStep(even, x[:nl], x[nl:n], invLow53)
	highStep(odd, x[nl:n], even, invHigh53)
	simd.Interleave2Row(x, even, odd)
	if nl > nh {
		x[n-1] = even[nl-1]
	}
}

// The 5/3 line lifting steps: forward high and low, and their inverses.
var (
	fwdHigh53 = liftStep[int32]{simd.SubShr1Row, func(a, b, c int32) int32 { return a - ((b + c) >> 1) }}
	fwdLow53  = liftStep[int32]{simd.AddShr2Row, func(a, b, c int32) int32 { return a + ((b + c + 2) >> 2) }}
	invLow53  = liftStep[int32]{simd.SubShr2Row, func(a, b, c int32) int32 { return a - ((b + c + 2) >> 2) }}
	invHigh53 = liftStep[int32]{simd.AddShr1Row, func(a, b, c int32) int32 { return a + ((b + c) >> 1) }}
)
