package dwt

import "j2kcell/internal/simd"

// Irreversible 9/7 lifting (Cohen–Daubechies–Feauveau) per ITU-T T.800:
// four lifting steps and a scaling step. With the constants below a
// constant signal lands entirely in the (unit-gain) low band and a
// Nyquist signal entirely in the high band with gain 2, matching the
// 5/3 normalization so Tier-1 treats both filters uniformly.
const (
	Alpha97 = -1.586134342059924
	Beta97  = -0.052980118572961
	Gamma97 = 0.882911075530934
	Delta97 = 0.443506852043971
	K97     = 1.230174104914001
	InvK97  = 1 / K97
)

// Lift97 applies d[i] += c * (e0[i] + e1[i]) — one lifting step over
// row vectors. Runs through the simd kernel layer; the vector
// forms perform the identical add/mul/add rounding chain (no FMA), so
// results are bit-identical to the scalar loop.
func Lift97(d, e0, e1 []float32, c float32) {
	simd.AddMulRow(d, d, e0, e1, c)
}

// Scale97 multiplies a row by k.
func Scale97(r []float32, k float32) {
	simd.MulConstRow(r, r, k)
}

// Vertical97Naive performs vertical 9/7 analysis as six sweeps over the
// region: split, four lifting passes, scaling — the unfused structure
// whose DMA cost motivates the paper's (and Kutil's) loop fusion.
// aux must hold ((h+1)/2)*w words.
func Vertical97Naive(data []float32, w, h, stride int, aux []float32) {
	if h <= 1 {
		return
	}
	nl, nh := (h+1)/2, h/2
	row := func(i int) []float32 { return data[i*stride : i*stride+w] }
	auxRow := func(k int) []float32 { return aux[k*w : (k+1)*w] }

	// Split.
	for k := 0; k < nh; k++ {
		copy(auxRow(k), row(2*k+1))
	}
	for k := 1; k < nl; k++ {
		copy(row(k), row(2*k))
	}
	for k := 0; k < nh; k++ {
		copy(row(nl+k), auxRow(k))
	}
	clampE := func(k int) []float32 {
		if k > nl-1 {
			k = nl - 1
		}
		return row(k)
	}
	clampD := func(k int) []float32 {
		if k < 0 {
			k = 0
		}
		if k > nh-1 {
			k = nh - 1
		}
		return row(nl + k)
	}
	// Four lifting passes.
	for k := 0; k < nh; k++ {
		Lift97(row(nl+k), row(k), clampE(k+1), float32(Alpha97))
	}
	for k := 0; k < nl; k++ {
		Lift97(row(k), clampD(k-1), clampD(k), float32(Beta97))
	}
	for k := 0; k < nh; k++ {
		Lift97(row(nl+k), row(k), clampE(k+1), float32(Gamma97))
	}
	for k := 0; k < nl; k++ {
		Lift97(row(k), clampD(k-1), clampD(k), float32(Delta97))
	}
	// Scaling pass.
	for k := 0; k < nl; k++ {
		Scale97(row(k), float32(InvK97))
	}
	for k := 0; k < nh; k++ {
		Scale97(row(nl+k), float32(K97))
	}
}

// Vertical97Fused performs the same analysis in a single sweep,
// pipelining the four lifting steps (Kutil's single-loop scheme) with
// the split merged in and the scaling folded into the final writes:
// six passes over the data become one, plus half-size aux traffic for
// the high rows. Bit-identical to Vertical97Naive because every row
// sees the same operations in the same order.
func Vertical97Fused(data []float32, w, h, stride int, aux []float32) {
	if h <= 1 {
		return
	}
	nl, nh := (h+1)/2, h/2
	row := func(i int) []float32 { return data[i*stride : i*stride+w] }
	auxRow := func(k int) []float32 { return aux[k*w : (k+1)*w] }

	// Stage values live where their final homes are: d1/d2 rows in aux,
	// e1/e2 rows at the top of the plane. Input rows x[i] are consumed
	// strictly before their slots are overwritten (writes at step k
	// touch row k-1 and aux; reads reach rows 2k..2k+2).
	step1 := func(k int) {
		e1 := row(2 * k)
		if 2*k+2 < h {
			e1 = row(2*k + 2)
		}
		Fused97Step1(auxRow(k), row(2*k), row(2*k+1), e1)
	}
	step2 := func(k int) {
		d0 := k - 1
		if d0 < 0 {
			d0 = 0
		}
		Fused97Step2(row(k), row(2*k), auxRow(d0), auxRow(k))
	}
	step3 := func(k int) {
		e1i := k + 1
		if e1i > nl-1 {
			e1i = nl - 1
		}
		Lift97(auxRow(k), row(k), row(e1i), float32(Gamma97))
	}
	step4 := func(k int) {
		d0 := k - 1
		if d0 < 0 {
			d0 = 0
		}
		Fused97Step4(row(k), auxRow(d0), auxRow(k))
	}

	for k := 0; k < nh; k++ {
		step1(k)
		step2(k)
		if k > 0 {
			step3(k - 1)
		}
		if k > 1 {
			step4(k - 2)
		}
	}
	if nl > nh {
		Fused97Step2Tail(row(nl-1), row(h-1), auxRow(nh-1))
	}
	step3(nh - 1)
	if nh >= 2 {
		step4(nh - 2)
	}
	step4(nh - 1)
	if nl > nh {
		Fused97Step4Tail(row(nl-1), auxRow(nh-1))
	}
	// Deliver high rows with their scaling.
	for k := 0; k < nh; k++ {
		Fused97ScaleHigh(row(nl+k), auxRow(k))
	}
}

// The exported Fused97Step* functions are the row operations of the
// single-loop 9/7 sweep; the SPE kernels in internal/core stream these
// exact expressions over Local Store buffers, which is what keeps the
// parallel encoder bit-identical to Vertical97Fused.

// Fused97Step1 computes d1 = o + α(e0 + e1).
func Fused97Step1(d, e0, o, e1 []float32) {
	simd.AddMulRow(d, o, e0, e1, float32(Alpha97))
}

// Fused97Step2 computes e1 = e0 + β(dPrev + dCur). s may alias e0.
func Fused97Step2(s, e0, dPrev, dCur []float32) {
	simd.AddMulRow(s, e0, dPrev, dCur, float32(Beta97))
}

// Fused97Step2Tail computes the odd-height tail e1 = e0 + 2β·d.
// β*(d+d) and (2β)*d round the same real product once, so routing the
// tail through the shared kernel with b = c = d is bit-identical.
func Fused97Step2Tail(s, e0, d []float32) {
	simd.AddMulRow(s, e0, d, d, float32(Beta97))
}

// Fused97Step4 computes e2 = (e1 + δ(dPrev + dCur)) / K in place.
func Fused97Step4(s, dPrev, dCur []float32) {
	simd.AddMulScaleRow(s, dPrev, dCur, float32(Delta97), float32(InvK97))
}

// Fused97Step4Tail computes the odd-height tail e2 = (e1 + 2δ·d) / K.
func Fused97Step4Tail(s, d []float32) {
	simd.AddMulScaleRow(s, d, d, float32(Delta97), float32(InvK97))
}

// Fused97ScaleHigh delivers a high row with its K scaling: out = d·K.
func Fused97ScaleHigh(out, d []float32) {
	simd.MulConstRow(out, d, float32(K97))
}

// inverseVertical97 reverses the vertical 9/7 analysis in one
// top-down sweep. The lows move to aux with their K scaling first,
// which frees the top half of the plane. Step i then scales H[i] by
// 1/K and undoes δ at L[i], γ at H[i−1], β at L[i−1] and α at H[i−2];
// the α kernel writes straight into output row 2(i−2)+1, and the
// finished L[i−2] is copied to row 2(i−2). Output row 2j+1 is at most
// nl+j, the row H[j] was read from, so every write lands on a row whose
// input has been consumed. Each element goes through the same kernel
// expressions in the same order as the per-step passes, so the result
// is bit-identical to them.
func inverseVertical97(data []float32, w, h, stride int, aux []float32) {
	if h <= 1 {
		return
	}
	nl, nh := (h+1)/2, h/2
	row := func(i int) []float32 { return data[i*stride : i*stride+w] }
	low := func(k int) []float32 { k = min(k, nl-1); return aux[k*w : (k+1)*w] }
	high := func(k int) []float32 { return row(nl + min(max(k, 0), nh-1)) }
	for k := 0; k < nl; k++ {
		simd.MulConstRow(low(k), row(k), float32(K97))
	}
	for i := 0; i <= nl+1; i++ {
		if i < nh {
			simd.MulConstRow(high(i), high(i), float32(InvK97))
		}
		if i < nl {
			simd.AddMulRow(low(i), low(i), high(i-1), high(i), -float32(Delta97))
		}
		if j := i - 1; j >= 0 && j < nh {
			simd.AddMulRow(high(j), high(j), low(j), low(j+1), -float32(Gamma97))
		}
		if j := i - 1; j >= 0 && j < nl {
			simd.AddMulRow(low(j), low(j), high(j-1), high(j), -float32(Beta97))
		}
		if j := i - 2; j >= 0 {
			if j < nh {
				simd.AddMulRow(row(2*j+1), high(j), low(j), low(j+1), -float32(Alpha97))
			}
			if j < nl {
				copy(row(2*j), low(j))
			}
		}
	}
}

// Fwd97Line performs 1-D 9/7 analysis on x, deinterleaving through tmp
// (len(tmp) >= len(x)). Each lifting step is one row-kernel sweep that
// writes lows to x[:nl] and highs to x[nl:]; the last low step folds
// in the 1/K scaling. The kernels round a + k·(b+c) exactly like the
// plain loop (no FMA), so the result is bit-identical to it.
func Fwd97Line(x []float32, tmp []float32) {
	n := len(x)
	if n <= 1 {
		return
	}
	nl, nh := (n+1)/2, n/2
	even, odd := tmp[:nl], tmp[nl:n]
	simd.Deinterleave2FRow(even, odd, x)
	if nl > nh {
		even[nl-1] = x[n-1]
	}
	low, high := x[:nl], x[nl:n]
	highStep(high, odd, even, lift97(float32(Alpha97)))
	lowStep(low, even, high, lift97(float32(Beta97)))
	highStep(high, high, low, lift97(float32(Gamma97)))
	lowStep(low, low, high, liftStep[float32]{ // in place: the kernel reads s as a
		row: func(s, _, b, c []float32) {
			simd.AddMulScaleRow(s, b, c, float32(Delta97), float32(InvK97))
		},
		one: func(a, b, c float32) float32 {
			return (a + float32(float32(Delta97)*(b+c))) * float32(InvK97)
		},
	})
	simd.MulConstRow(high, high, float32(K97))
}

// Inv97Line reverses Fwd97Line through the same lifting sweeps with
// negated constants: a - c·s and a + (-c)·s are the same IEEE value
// (negation is a sign flip, the product rounds once either way), so
// this is bit-identical to the subtracting loop form.
func Inv97Line(x []float32, tmp []float32) {
	n := len(x)
	if n <= 1 {
		return
	}
	nl, nh := (n+1)/2, n/2
	low, high := tmp[:nl], tmp[nl:n]
	simd.MulConstRow(low, x[:nl], float32(K97))
	simd.MulConstRow(high, x[nl:n], float32(InvK97))
	lowStep(low, low, high, lift97(-float32(Delta97)))
	highStep(high, high, low, lift97(-float32(Gamma97)))
	lowStep(low, low, high, lift97(-float32(Beta97)))
	highStep(high, high, low, lift97(-float32(Alpha97)))
	simd.Interleave2FRow(x, low, high)
	if nl > nh {
		x[n-1] = low[nl-1]
	}
}

// lift97 is the 9/7 lifting step a + c·(b+d). The float32 conversion
// rounds the product on its own, so no target can fuse it into the add
// (Go fuses x*y+z on arm64 otherwise), matching the no-FMA kernels.
func lift97(c float32) liftStep[float32] {
	return liftStep[float32]{
		row: func(dst, a, b, d []float32) { simd.AddMulRow(dst, a, b, d, c) },
		one: func(a, b, d float32) float32 { return a + float32(c*(b+d)) },
	}
}
