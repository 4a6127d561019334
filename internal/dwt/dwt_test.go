package dwt

import (
	"math"
	"testing"
	"testing/quick"

	"j2kcell/internal/simd"
	"j2kcell/internal/workload"
)

// randPlane fills a w×h int32 region (stride == w for simplicity).
func randPlane(w, h int, seed uint32, amp int32) []int32 {
	rng := workload.NewRNG(seed)
	data := make([]int32, w*h)
	for i := range data {
		data[i] = int32(rng.Intn(int(2*amp+1))) - amp
	}
	return data
}

func toF32(x []int32) []float32 {
	f := make([]float32, len(x))
	for i, v := range x {
		f[i] = float32(v)
	}
	return f
}

func TestLayoutGeometry(t *testing.T) {
	bands := Layout(17, 9, 2)
	if len(bands) != 7 {
		t.Fatalf("band count %d, want 7", len(bands))
	}
	// Level dims: l1 = 9x5, l2 = 5x3.
	ll := bands[0]
	if ll.Orient != LL || ll.W != 5 || ll.H != 3 {
		t.Fatalf("LL band %+v", ll)
	}
	// Bands must tile the plane exactly.
	covered := make([]bool, 17*9)
	for _, b := range bands {
		for y := b.Y0; y < b.Y0+b.H; y++ {
			for x := b.X0; x < b.X0+b.W; x++ {
				if covered[y*17+x] {
					t.Fatalf("band %+v overlaps at %d,%d", b, x, y)
				}
				covered[y*17+x] = true
			}
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("position %d not covered by any band", i)
		}
	}
}

func TestLayoutOrdering(t *testing.T) {
	bands := Layout(64, 64, 3)
	if bands[0].Orient != LL || bands[0].Level != 3 {
		t.Fatal("first band must be the deepest LL")
	}
	wantOrient := []Orient{HL, LH, HH}
	for i := 1; i < len(bands); i++ {
		if bands[i].Orient != wantOrient[(i-1)%3] {
			t.Fatalf("band %d orient %v", i, bands[i].Orient)
		}
	}
	if bands[1].Level != 3 || bands[len(bands)-1].Level != 1 {
		t.Fatal("levels must run coarse to fine")
	}
}

func TestMaxLevels(t *testing.T) {
	cases := []struct{ w, h, want int }{
		{1, 1, 0}, {2, 1, 1}, {64, 64, 6}, {3072, 3072, 12}, {5, 3, 3},
	}
	for _, c := range cases {
		if got := MaxLevels(c.w, c.h); got != c.want {
			t.Errorf("MaxLevels(%d,%d)=%d, want %d", c.w, c.h, got, c.want)
		}
	}
}

func TestForward53Inverse53RoundTrip(t *testing.T) {
	sizes := []struct{ w, h, lv int }{
		{8, 8, 1}, {8, 8, 3}, {17, 9, 2}, {1, 7, 2}, {7, 1, 2},
		{2, 2, 1}, {3, 3, 2}, {64, 48, 5}, {33, 65, 4},
	}
	for _, s := range sizes {
		orig := randPlane(s.w, s.h, uint32(s.w*31+s.h), 300)
		data := append([]int32(nil), orig...)
		Forward53(data, s.w, s.h, s.w, s.lv)
		Inverse53(data, s.w, s.h, s.w, s.lv)
		for i := range orig {
			if data[i] != orig[i] {
				t.Fatalf("%dx%d lv%d: 5/3 not reversible at %d: %d != %d", s.w, s.h, s.lv, i, data[i], orig[i])
			}
		}
	}
}

func TestPropForward53Reversible(t *testing.T) {
	f := func(w8, h8 uint8, lv8 uint8, seed uint32) bool {
		w, h := int(w8)%50+1, int(h8)%50+1
		lv := int(lv8) % 6
		orig := randPlane(w, h, seed, 1000)
		data := append([]int32(nil), orig...)
		Forward53(data, w, h, w, lv)
		Inverse53(data, w, h, w, lv)
		for i := range orig {
			if data[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVertical53FusedMatchesNaive(t *testing.T) {
	for _, h := range []int{2, 3, 4, 5, 8, 17, 64} {
		const w = 13
		a := randPlane(w, h, uint32(h), 500)
		b := append([]int32(nil), a...)
		aux := make([]int32, ((h+1)/2)*w)
		Vertical53Naive(a, w, h, w, aux)
		aux2 := make([]int32, ((h+1)/2)*w)
		Vertical53Fused(b, w, h, w, aux2)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("h=%d: fused differs from naive at %d: %d vs %d", h, i, b[i], a[i])
			}
		}
	}
}

func TestVertical97FusedMatchesNaive(t *testing.T) {
	for _, h := range []int{2, 3, 4, 5, 6, 7, 8, 17, 64} {
		const w = 13
		src := randPlane(w, h, uint32(h*7), 500)
		a, b := toF32(src), toF32(src)
		aux := make([]float32, ((h+1)/2)*w)
		Vertical97Naive(a, w, h, w, aux)
		aux2 := make([]float32, ((h+1)/2)*w)
		Vertical97Fused(b, w, h, w, aux2)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("h=%d: fused 9/7 differs from naive at %d: %v vs %v (must be bit-identical)", h, i, b[i], a[i])
			}
		}
	}
}

func TestForward97RoundTrip(t *testing.T) {
	sizes := []struct{ w, h, lv int }{
		{8, 8, 1}, {17, 9, 2}, {64, 48, 5}, {33, 65, 4}, {2, 2, 1}, {3, 5, 2},
	}
	for _, s := range sizes {
		src := randPlane(s.w, s.h, uint32(s.w+s.h*13), 300)
		data := toF32(src)
		Forward97(data, s.w, s.h, s.w, s.lv)
		Inverse97(data, s.w, s.h, s.w, s.lv)
		for i := range src {
			if d := float64(data[i]) - float64(src[i]); math.Abs(d) > 1e-2 {
				t.Fatalf("%dx%d lv%d: 9/7 reconstruction error %v at %d", s.w, s.h, s.lv, d, i)
			}
		}
	}
}

func TestDWT53EnergyCompaction(t *testing.T) {
	// A natural image must concentrate energy in the LL band.
	img := workload.Dial(64, 64, 9, 3)
	p := img.Comps[0]
	data := make([]int32, 64*64)
	for r := 0; r < 64; r++ {
		copy(data[r*64:], p.Row(r))
		for c := 0; c < 64; c++ {
			data[r*64+c] -= 128
		}
	}
	Forward53(data, 64, 64, 64, 3)
	// With the unit-DC-gain normalization, a coefficient's contribution
	// to image energy is its value scaled by the synthesis basis norm.
	var llE, totE float64
	for _, b := range Layout(64, 64, 3) {
		g := BandGain(W53, 3, b.Orient, b.Level)
		var e float64
		for y := b.Y0; y < b.Y0+b.H; y++ {
			for x := b.X0; x < b.X0+b.W; x++ {
				v := float64(data[y*64+x]) * g
				e += v * v
			}
		}
		if b.Orient == LL {
			llE = e
		}
		totE += e
	}
	if llE/totE < 0.5 {
		t.Fatalf("LL holds only %.1f%% of weighted energy; transform or layout broken", 100*llE/totE)
	}
}

func TestDWT97DCandNyquistGains(t *testing.T) {
	// Constant input: all energy in LL with unit gain.
	const n = 32
	data := make([]float32, n*n)
	for i := range data {
		data[i] = 100
	}
	Forward97(data, n, n, n, 1)
	if math.Abs(float64(data[0])-100) > 1e-3 {
		t.Fatalf("LL DC gain: got %v, want 100", data[0])
	}
	for _, b := range Layout(n, n, 1)[1:] {
		for y := b.Y0; y < b.Y0+b.H; y++ {
			for x := b.X0; x < b.X0+b.W; x++ {
				if v := data[y*n+x]; math.Abs(float64(v)) > 1e-3 {
					t.Fatalf("%v band leaked DC: %v", b.Orient, v)
				}
			}
		}
	}
	// Impulse response of the 1-D analysis line: the lifting
	// factorization must implement the T.800 Table F.4 analysis bank —
	// a symmetric 9-tap low-pass with DC gain 1 and a symmetric 7-tap
	// high-pass with Nyquist gain 2, zero beyond their supports.
	lowTaps := []float64{0.026748757410810, -0.016864118442875, -0.078223266528990, 0.266864118442875,
		0.602949018236360, 0.266864118442875, -0.078223266528990, -0.016864118442875, 0.026748757410810}
	highTaps := []float64{0.091271763114250, -0.057543526228500, -0.591271763114250, 1.115087052457000,
		-0.591271763114250, -0.057543526228500, 0.091271763114250}
	const line, k = 64, 16 // probe low[k] (input 2k) and high[k] (input 2k+1)
	x, tmp := make([]float32, line), make([]float32, line)
	for m := -6; m <= 6; m++ {
		clear(x)
		x[2*k+m] = 1
		Fwd97Line(x, tmp)
		var wantL, wantH float64
		if m >= -4 && m <= 4 {
			wantL = lowTaps[m+4]
		}
		if m >= -2 && m <= 4 {
			wantH = highTaps[m+2]
		}
		if gotL := float64(x[k]); math.Abs(gotL-wantL) > 1e-5 {
			t.Errorf("low tap %+d: got %v, want %v", m, gotL, wantL)
		}
		if gotH := float64(x[line/2+k]); math.Abs(gotH-wantH) > 1e-5 {
			t.Errorf("high tap %+d: got %v, want %v", m-1, gotH, wantH)
		}
	}
}

func TestBandGainsSane(t *testing.T) {
	for _, f := range []Filter{W53, W97} {
		for lv := 1; lv <= 3; lv++ {
			llg := BandGain(f, lv, LL, lv)
			if llg < 1 {
				t.Errorf("filter %d lv %d: LL gain %v < 1", f, lv, llg)
			}
			// Gains grow with level (coarser coefficients matter more),
			// and HH < HL ≈ LH at a given level.
			for l := 1; l <= lv; l++ {
				hl, lh, hh := BandGain(f, lv, HL, l), BandGain(f, lv, LH, l), BandGain(f, lv, HH, l)
				if math.Abs(hl-lh) > 1e-9 {
					t.Errorf("HL/LH asymmetric: %v vs %v", hl, lh)
				}
				if hh >= hl {
					t.Errorf("HH gain %v not below HL %v", hh, hl)
				}
				if l > 1 && BandGain(f, lv, HL, l) <= BandGain(f, lv, HL, l-1) {
					t.Errorf("gain not increasing with level")
				}
			}
		}
	}
	// 9/7 level-1 gains match the well-known table values (≈ within
	// boundary effects): LL1≈1 is not applicable; HL1 ≈ 1.0, HH1 ≈ 0.7.
	hl := BandGain(W97, 1, HL, 1)
	if hl < 0.8 || hl > 1.3 {
		t.Errorf("HL1 9/7 gain %v outside sanity range", hl)
	}
}

// planeGains is the test oracle for the closed-form gain tables: it
// measures each band's norm directly, by placing a unit coefficient in
// the middle of the band on a plane just large enough that the deepest
// band still has an interior coefficient, running a linear float64
// inverse transform, and taking the L2 norm of the reconstruction.
// O(4^levels) time and memory, so only shallow depths are checked.
func planeGains(f Filter, levels int) map[Orient][]float64 {
	n := 32 << levels
	out := map[Orient][]float64{
		LL: make([]float64, levels+1),
		HL: make([]float64, levels+1),
		LH: make([]float64, levels+1),
		HH: make([]float64, levels+1),
	}
	data := make([]float64, n*n)
	tmp := make([]float64, n)
	col := make([]float64, n)
	for _, b := range Layout(n, n, levels) {
		clear(data)
		data[(b.Y0+b.H/2)*n+(b.X0+b.W/2)] = 1
		for l := levels - 1; l >= 0; l-- {
			m := levelDim(n, l)
			for r := 0; r < m; r++ {
				invLine64(f, data[r*n:r*n+m], tmp)
			}
			for c := 0; c < m; c++ {
				for r := 0; r < m; r++ {
					col[r] = data[r*n+c]
				}
				invLine64(f, col[:m], tmp)
				for r := 0; r < m; r++ {
					data[r*n+c] = col[r]
				}
			}
		}
		var ss float64
		for _, v := range data {
			ss += v * v
		}
		out[b.Orient][b.Level] = math.Sqrt(ss)
	}
	return out
}

// TestGainsClosedFormMatchesPlane pins the closed-form tables to the
// plane measurement: the same norms up to roundoff, and the same
// float32 quantizer steps.
func TestGainsClosedFormMatchesPlane(t *testing.T) {
	for _, f := range []Filter{W53, W97} {
		for _, lv := range []int{1, 3, 5} {
			plane := planeGains(f, lv)
			for _, o := range []Orient{LL, HL, LH, HH} {
				for l := 1; l <= lv; l++ {
					if o == LL && l != lv {
						continue
					}
					want, got := plane[o][l], BandGain(f, lv, o, l)
					if math.Abs(got-want) > 1e-12*want {
						t.Errorf("filter %d lv %d band %v/%d: closed form %v vs plane %v", f, lv, o, l, got, want)
					}
					if float32(0.5/got) != float32(0.5/want) {
						t.Errorf("filter %d lv %d band %v/%d: float32 step moved", f, lv, o, l)
					}
				}
			}
		}
	}
}

// TestDeepGainTablesAreCheap pins the robustness property deep streams
// need: a hostile COD segment may claim up to 32 decomposition levels,
// and every such table must be finite and ordered. After the first call
// no depth allocates, so nothing is measured or cached per depth.
func TestDeepGainTablesAreCheap(t *testing.T) {
	for _, f := range []Filter{W53, W97} {
		WarmGains(f, 1)
		lv := 1
		if a := testing.AllocsPerRun(maxGainLevels, func() {
			lv = lv%maxGainLevels + 1
			WarmGains(f, lv)
			BandGain(f, lv, HH, lv)
		}); a != 0 {
			t.Errorf("filter %d: %v allocs per unseen depth", f, a)
		}
		prevLL := 0.0
		for lv := 0; lv <= maxGainLevels; lv++ {
			ll := BandGain(f, lv, LL, lv)
			if !(ll > prevLL) || math.IsInf(ll, 0) {
				t.Fatalf("filter %d lv %d LL: gain %v after %v", f, lv, ll, prevLL)
			}
			prevLL = ll
			for _, o := range []Orient{HL, LH, HH} {
				prev := 0.0
				for l := 1; l <= lv; l++ {
					g := BandGain(f, lv, o, l)
					if !(g > prev) || math.IsInf(g, 0) {
						t.Fatalf("filter %d lv %d band %v/%d: gain %v after %v", f, lv, o, l, g, prev)
					}
					prev = g
				}
			}
		}
	}
}

func TestForward53IsDeterministic(t *testing.T) {
	a := randPlane(40, 30, 4, 100)
	b := append([]int32(nil), a...)
	Forward53(a, 40, 30, 40, 3)
	Forward53(b, 40, 30, 40, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic transform")
		}
	}
}

func TestStrideLargerThanWidth(t *testing.T) {
	// Padding words must never be touched.
	const w, h, stride = 20, 12, 32
	data := make([]int32, stride*h)
	rng := workload.NewRNG(8)
	for r := 0; r < h; r++ {
		for c := 0; c < stride; c++ {
			if c < w {
				data[r*stride+c] = int32(rng.Intn(200)) - 100
			} else {
				data[r*stride+c] = -99999 // sentinel in padding
			}
		}
	}
	orig := append([]int32(nil), data...)
	Forward53(data, w, h, stride, 3)
	for r := 0; r < h; r++ {
		for c := w; c < stride; c++ {
			if data[r*stride+c] != -99999 {
				t.Fatalf("padding clobbered at %d,%d", r, c)
			}
		}
	}
	Inverse53(data, w, h, stride, 3)
	for i := range data {
		if data[i] != orig[i] {
			t.Fatal("strided round trip failed")
		}
	}
}

func TestInverseLevelsPartial(t *testing.T) {
	// Inverting only the coarse levels must leave the top-left region
	// equal to what a forward transform of the downscaled... more
	// precisely: InverseLevels(levels, stop) after Forward(levels) must
	// equal Forward(stop) of the original.
	const w, h, levels, stop = 48, 40, 4, 2
	orig := randPlane(w, h, 77, 300)
	a := append([]int32(nil), orig...)
	Forward53(a, w, h, w, levels)
	InverseLevels53(a, w, h, w, levels, stop)
	b := append([]int32(nil), orig...)
	Forward53(b, w, h, w, stop)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("partial inverse mismatch at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Float analogue, to rounding error.
	fa := toF32(orig)
	Forward97(fa, w, h, w, levels)
	InverseLevels97(fa, w, h, w, levels, stop)
	fb := toF32(orig)
	Forward97(fb, w, h, w, stop)
	for i := range fa {
		if d := float64(fa[i] - fb[i]); d > 1e-2 || d < -1e-2 {
			t.Fatalf("97 partial inverse mismatch at %d: %v vs %v", i, fa[i], fb[i])
		}
	}
}

func TestInverseLevelsStopZeroEqualsInverse(t *testing.T) {
	orig := randPlane(20, 20, 5, 200)
	a := append([]int32(nil), orig...)
	Forward53(a, 20, 20, 20, 3)
	InverseLevels53(a, 20, 20, 20, 3, 0)
	for i := range a {
		if a[i] != orig[i] {
			t.Fatal("stop=0 did not fully invert")
		}
	}
}

// TestFixShiftMatchesSIMD pins the Q13 format shared with the simd
// kernel layer: simd.FixAddMulRow decomposes the 64-bit fixMul product
// assuming exactly this many fractional bits, so the two constants
// must never drift apart.
func TestFixShiftMatchesSIMD(t *testing.T) {
	if FixShift != simd.FixShift {
		t.Fatalf("dwt.FixShift = %d, simd.FixShift = %d", FixShift, simd.FixShift)
	}
}
