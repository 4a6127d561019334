package simd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests: each …Vec body, finished by the scalar loop the
// way its exported wrapper finishes it, must match the scalar oracle
// bit for bit on every length (including 0, 1, and odd tails) and at
// unaligned slice offsets, and must handle exactly the whole-vector
// prefix its build promises. Lengths cross several 4-lane boundaries so
// both the vector body and the scalar tail are exercised.

var testLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 257, 1024}

// checkHandled requires a …Vec body to have handled the whole-vector
// prefix of an n-element row that this build's set covers (vecPrefix).
func checkHandled(t *testing.T, m, n int) {
	t.Helper()
	if want := vecPrefix(n); m != want {
		t.Fatalf("%s body handled %d of %d elements, want %d", Kernel(), m, n, want)
	}
}

func randF32(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		switch rng.Intn(10) {
		case 0:
			s[i] = 0
		case 1:
			s[i] = float32(math.Inf(1))
		default:
			s[i] = (rng.Float32() - 0.5) * 4096
		}
	}
	return s
}

func randI32(rng *rand.Rand, n int, max int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(rng.Int63n(int64(max)*2+1) - int64(max))
	}
	return s
}

// off slices a buffer at a deliberately unaligned element offset so
// vector loads hit addresses that are not 16-byte aligned.
func offF32(s []float32) []float32 { return append(make([]float32, 3), s...)[3:] }
func offI32(s []int32) []int32     { return append(make([]int32, 3), s...)[3:] }
func offU32(s []uint32) []uint32   { return append(make([]uint32, 3), s...)[3:] }

func eqF32(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %x (%v), want %x (%v)", name, i,
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

func eqI32(t *testing.T, name string, got, want []int32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

func eqU32(t *testing.T, name string, got, want []uint32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %#x, want %#x", name, i, got[i], want[i])
		}
	}
}

func TestAddMulF32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testLengths {
		a, b, c := randF32(rng, n), randF32(rng, n), randF32(rng, n)
		want := make([]float32, n)
		scalarAddMulF32(want, a, b, c, float32(-1.586134342))
		got := offF32(make([]float32, n))
		m := addMulF32Vec(got, a, b, c, float32(-1.586134342))
		checkHandled(t, m, n)
		scalarAddMulF32(got[m:], a[m:], b[m:], c[m:], float32(-1.586134342))
		eqF32(t, fmt.Sprintf("%s/n=%d", Kernel(), n), got, want)
	}
}

func TestAddMulF32Aliased(t *testing.T) {
	// The dwt call sites alias dst with a and b with c (the lifting
	// tail steps); verify the kernels tolerate full aliasing.
	rng := rand.New(rand.NewSource(2))
	for _, n := range testLengths {
		d0, e0 := randF32(rng, n), randF32(rng, n)
		want := append([]float32(nil), d0...)
		scalarAddMulF32(want, want, e0, e0, 0.25)
		got := append([]float32(nil), d0...)
		m := addMulF32Vec(got, got, e0, e0, 0.25)
		checkHandled(t, m, n)
		scalarAddMulF32(got[m:], got[m:], e0[m:], e0[m:], 0.25)
		eqF32(t, fmt.Sprintf("%s/n=%d", Kernel(), n), got, want)
	}
}

func TestAddMulScaleF32(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range testLengths {
		s0, b, c := randF32(rng, n), randF32(rng, n), randF32(rng, n)
		want := append([]float32(nil), s0...)
		scalarAddMulScaleF32(want, b, c, 0.4435068522, 1.2301741)
		got := offF32(append([]float32(nil), s0...))
		m := addMulScaleF32Vec(got, b, c, 0.4435068522, 1.2301741)
		checkHandled(t, m, n)
		scalarAddMulScaleF32(got[m:], b[m:], c[m:], 0.4435068522, 1.2301741)
		eqF32(t, fmt.Sprintf("%s/n=%d", Kernel(), n), got, want)
	}
}

func TestMulConstF32(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range testLengths {
		src := randF32(rng, n)
		want := make([]float32, n)
		scalarMulConstF32(want, src, 0.8128930655)
		got := offF32(make([]float32, n))
		m := mulConstF32Vec(got, src, 0.8128930655)
		checkHandled(t, m, n)
		scalarMulConstF32(got[m:], src[m:], 0.8128930655)
		eqF32(t, fmt.Sprintf("%s/n=%d", Kernel(), n), got, want)
	}
}

func TestQuantF32(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range testLengths {
		src := randF32(rng, n)
		if n > 2 {
			src[0] = float32(math.Inf(1))  // overflow lane
			src[1] = float32(math.Inf(-1)) // negative overflow
			src[2] = float32(math.NaN())
		}
		want := make([]int32, n)
		scalarQuantF32(want, src, 1.0/0.0009765625)
		got := offI32(make([]int32, n))
		m := quantF32Vec(got, src, 1.0/0.0009765625)
		checkHandled(t, m, n)
		scalarQuantF32(got[m:], src[m:], 1.0/0.0009765625)
		eqI32(t, fmt.Sprintf("%s/n=%d", Kernel(), n), got, want)
	}
}

func TestICTFwd(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := &ICTParams{
		Off: 128,
		YR:  0.299, YG: 0.587, YB: 0.114,
		CbR: -0.168736, CbG: -0.331264, CbB: 0.5,
		CrR: 0.5, CrG: -0.418688, CrB: -0.081312,
	}
	for _, n := range testLengths {
		r, g, b := randI32(rng, n, 255), randI32(rng, n, 255), randI32(rng, n, 255)
		wy, wcb, wcr := make([]float32, n), make([]float32, n), make([]float32, n)
		scalarICTFwd(r, g, b, wy, wcb, wcr, p)
		gy, gcb, gcr := offF32(make([]float32, n)), offF32(make([]float32, n)), offF32(make([]float32, n))
		m := ictFwdVec(r, g, b, gy, gcb, gcr, p)
		checkHandled(t, m, n)
		scalarICTFwd(r[m:], g[m:], b[m:], gy[m:], gcb[m:], gcr[m:], p)
		eqF32(t, fmt.Sprintf("%s/y/n=%d", Kernel(), n), gy, wy)
		eqF32(t, fmt.Sprintf("%s/cb/n=%d", Kernel(), n), gcb, wcb)
		eqF32(t, fmt.Sprintf("%s/cr/n=%d", Kernel(), n), gcr, wcr)
	}
}

func TestShr12Kernels(t *testing.T) {
	type kcase struct {
		name   string
		scalar func(dst, a, b, c []int32)
		vec    func(dst, a, b, c []int32) int
	}
	cases := []kcase{
		{"addShr1", scalarAddShr1I32, addShr1I32Vec},
		{"subShr1", scalarSubShr1I32, subShr1I32Vec},
		{"addShr2", scalarAddShr2I32, addShr2I32Vec},
		{"subShr2", scalarSubShr2I32, subShr2I32Vec},
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range cases {
		for _, n := range testLengths {
			// Include values near the int32 extremes to pin wrap
			// behavior, matching Go's signed overflow semantics.
			a, b, c := randI32(rng, n, 1<<20), randI32(rng, n, 1<<20), randI32(rng, n, 1<<20)
			if n > 1 {
				b[0], c[0] = math.MaxInt32, math.MaxInt32
				b[1], c[1] = math.MinInt32, math.MinInt32
			}
			want := make([]int32, n)
			tc.scalar(want, a, b, c)
			got := offI32(make([]int32, n))
			m := tc.vec(got, a, b, c)
			checkHandled(t, m, n)
			tc.scalar(got[m:], a[m:], b[m:], c[m:])
			eqI32(t, fmt.Sprintf("%s/%s/n=%d", tc.name, Kernel(), n), got, want)
		}
	}
}

func TestAddConstI32(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range testLengths {
		base := randI32(rng, n, 1<<24)
		want := append([]int32(nil), base...)
		scalarAddConstI32(want, -128)
		got := offI32(append([]int32(nil), base...))
		m := addConstI32Vec(got, -128)
		checkHandled(t, m, n)
		scalarAddConstI32(got[m:], -128)
		eqI32(t, fmt.Sprintf("%s/n=%d", Kernel(), n), got, want)
	}
}

func TestRCTFwd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range testLengths {
		r0, g0, b0 := randI32(rng, n, 255), randI32(rng, n, 255), randI32(rng, n, 255)
		wr, wg, wb := append([]int32(nil), r0...), append([]int32(nil), g0...), append([]int32(nil), b0...)
		scalarRCTFwd(wr, wg, wb, 128)
		gr, gg, gb := offI32(append([]int32(nil), r0...)), offI32(append([]int32(nil), g0...)), offI32(append([]int32(nil), b0...))
		m := rctFwdVec(gr, gg, gb, 128)
		checkHandled(t, m, n)
		scalarRCTFwd(gr[m:], gg[m:], gb[m:], 128)
		eqI32(t, fmt.Sprintf("%s/r/n=%d", Kernel(), n), gr, wr)
		eqI32(t, fmt.Sprintf("%s/g/n=%d", Kernel(), n), gg, wg)
		eqI32(t, fmt.Sprintf("%s/b/n=%d", Kernel(), n), gb, wb)
	}
}

// fixKs are JasPer's Q13 9/7 lifting and scaling constants, plus sign
// variants. All satisfy |k| < 2^18,
// the precondition of the vector fixMul decomposition.
var fixKs = []int32{-12994, -434, 7233, 3633, 13318, 5038, 8192, -8192, 1, -1}

func TestFixAddMul(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, k := range fixKs {
		for _, n := range testLengths {
			d0 := randI32(rng, n, 1<<26)
			b, c := randI32(rng, n, 1<<26), randI32(rng, n, 1<<26)
			want := append([]int32(nil), d0...)
			scalarFixAddMul(want, b, c, k)
			got := offI32(append([]int32(nil), d0...))
			m := fixAddMulVec(got, b, c, k)
			checkHandled(t, m, n)
			scalarFixAddMul(got[m:], b[m:], c[m:], k)
			eqI32(t, fmt.Sprintf("%s/k=%d/n=%d", Kernel(), k, n), got, want)
		}
	}
}

func TestAbsOr(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range testLengths {
		coef := randI32(rng, n, 1<<30)
		if n > 0 {
			coef[0] = math.MinInt32 // |MinInt32| wraps to 0x80000000, same both ways
		}
		want := make([]uint32, n)
		wantOr := scalarAbsOr(want, coef)
		got := offU32(make([]uint32, n))
		m, or := absOrVec(got, coef)
		checkHandled(t, m, n)
		or |= scalarAbsOr(got[m:], coef[m:])
		eqU32(t, fmt.Sprintf("%s/n=%d", Kernel(), n), got, want)
		if or != wantOr {
			t.Fatalf("%s/n=%d: or = %#x, want %#x", Kernel(), n, or, wantOr)
		}
	}
}

func TestOrU32(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range testLengths {
		d0 := make([]uint32, n)
		src := make([]uint32, n)
		for i := range d0 {
			d0[i], src[i] = rng.Uint32(), rng.Uint32()
		}
		want := append([]uint32(nil), d0...)
		scalarOrU32(want, src)
		got := offU32(append([]uint32(nil), d0...))
		m := orU32Vec(got, src)
		checkHandled(t, m, n)
		scalarOrU32(got[m:], src[m:])
		eqU32(t, fmt.Sprintf("%s/n=%d", Kernel(), n), got, want)
	}
}

func TestSignOr(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const bit = 1 << 6
	for _, n := range testLengths {
		coef := randI32(rng, n, 1<<30)
		f0 := make([]uint32, n)
		for i := range f0 {
			f0[i] = rng.Uint32() &^ uint32(bit)
		}
		want := append([]uint32(nil), f0...)
		scalarSignOr(want, coef, bit)
		got := offU32(append([]uint32(nil), f0...))
		m := signOrVec(got, coef, bit)
		checkHandled(t, m, n)
		scalarSignOr(got[m:], coef[m:], bit)
		eqU32(t, fmt.Sprintf("%s/n=%d", Kernel(), n), got, want)
	}
}

// refPlaneMask is PlaneMaskRow's definition, one bit at a time; the
// words it returns hold zeros past len(mag).
func refPlaneMask(mag []uint32, p uint) (nz, bit []uint64) {
	nw := (len(mag) + 63) / 64
	nz, bit = make([]uint64, nw), make([]uint64, nw)
	for i, m := range mag {
		if m>>p != 0 {
			nz[i/64] |= 1 << (i % 64)
		}
		if p >= 1 && m>>(p-1)&1 == 1 {
			bit[i/64] |= 1 << (i % 64)
		}
	}
	return nz, bit
}

// checkPlaneMask runs PlaneMaskRow on words pre-filled with ones, one
// word longer than needed, and requires the reference bits in every
// covering word (so bits at or past len(mag) are zero) and the extra
// word untouched. The …Vec body runs first on the same words, so a
// store past the row by it shows in the extra word too.
func checkPlaneMask(t *testing.T, name string, mag []uint32, p uint) {
	t.Helper()
	wantNZ, wantBit := refPlaneMask(mag, p)
	nw := len(wantNZ)
	nz, bit := make([]uint64, nw+1), make([]uint64, nw+1)
	for i := range nz {
		nz[i], bit[i] = ^uint64(0), ^uint64(0)
	}
	checkHandled(t, planeMaskVec(nz, bit, mag, p), len(mag))
	PlaneMaskRow(nz, bit, mag, p)
	for i := 0; i < nw; i++ {
		if nz[i] != wantNZ[i] || bit[i] != wantBit[i] {
			t.Fatalf("%s/n=%d/p=%d: word %d = nz %#x bit %#x, want %#x %#x", name, len(mag), p, i, nz[i], bit[i], wantNZ[i], wantBit[i])
		}
	}
	if nz[nw] != ^uint64(0) || bit[nw] != ^uint64(0) {
		t.Fatalf("%s/n=%d/p=%d: wrote word %d past the row", name, len(mag), p, nw)
	}
}

// TestPlaneMaskRow pins PlaneMaskRow to its bit-by-bit definition at every length 0–130 (partial words, vector
// tails and word boundaries), every plane 0–31 and an unaligned row,
// over magnitudes that include 0, 1, 2, 3 and 2^31.
func TestPlaneMaskRow(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 0; n <= 130; n++ {
		mag := offU32(make([]uint32, n))
		for i := range mag {
			switch k := rng.Intn(8); k {
			case 0, 1, 2, 3:
				mag[i] = uint32(k)
			case 4:
				mag[i] = 1 << 31
			default:
				mag[i] = rng.Uint32() >> rng.Intn(32)
			}
		}
		for p := uint(0); p < 32; p++ {
			checkPlaneMask(t, Kernel(), mag, p)
		}
	}
}

// TestKernelReportsName pins the build's kernel set: sse2 on amd64
// without noasm, scalar everywhere else.
func TestKernelReportsName(t *testing.T) {
	if got := Kernel(); got != wantKernel {
		t.Fatalf("Kernel() = %q, want %q", got, wantKernel)
	}
}

func TestDequantF32(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const delta = 0.0009765625
	for _, n := range testLengths {
		src := randI32(rng, n, 1<<20)
		if n > 2 {
			src[0] = 0 // the dead-zone lane must come out exactly 0
			src[1] = math.MaxInt32
			src[2] = math.MinInt32
		}
		want := make([]float32, n)
		scalarDequantF32(want, src, delta)
		got := offF32(make([]float32, n))
		m := dequantF32Vec(got, src, delta)
		checkHandled(t, m, n)
		scalarDequantF32(got[m:], src[m:], delta)
		eqF32(t, fmt.Sprintf("%s/n=%d", Kernel(), n), got, want)
	}
}

func TestICTInv(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := &ICTInvParams{
		Off: 128,
		RCr: 1.402,
		GCb: 0.344136, GCr: 0.714136,
		BCb: 1.772,
	}
	for _, n := range testLengths {
		y, cb, cr := randF32(rng, n), randF32(rng, n), randF32(rng, n)
		if n > 1 {
			y[0] = float32(math.NaN()) // truncation overflow lane
			y[1] = float32(math.Inf(-1))
		}
		wr, wg, wb := make([]int32, n), make([]int32, n), make([]int32, n)
		scalarICTInv(y, cb, cr, wr, wg, wb, p)
		gr, gg, gb := offI32(make([]int32, n)), offI32(make([]int32, n)), offI32(make([]int32, n))
		m := ictInvVec(y, cb, cr, gr, gg, gb, p)
		checkHandled(t, m, n)
		scalarICTInv(y[m:], cb[m:], cr[m:], gr[m:], gg[m:], gb[m:], p)
		eqI32(t, fmt.Sprintf("%s/r/n=%d", Kernel(), n), gr, wr)
		eqI32(t, fmt.Sprintf("%s/g/n=%d", Kernel(), n), gg, wg)
		eqI32(t, fmt.Sprintf("%s/b/n=%d", Kernel(), n), gb, wb)
	}
}

func TestRoundAddF32(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range testLengths {
		src := randF32(rng, n)
		if n > 2 {
			src[0] = float32(math.Inf(1))
			src[1] = float32(math.Inf(-1))
			src[2] = float32(math.NaN())
		}
		// Exact halves once the offset is added, of both signs: the tie
		// rule is all that tells rounding modes apart, and random floats
		// almost never land on one.
		for i := 3; i < n; i += 5 {
			src[i] = float32(i%17) - 136.5
		}
		want := make([]int32, n)
		scalarRoundAddF32(want, src, 128)
		got := offI32(make([]int32, n))
		m := roundAddF32Vec(got, src, 128)
		checkHandled(t, m, n)
		scalarRoundAddF32(got[m:], src[m:], 128)
		eqI32(t, fmt.Sprintf("%s/n=%d", Kernel(), n), got, want)
	}
}

// roundTies is the decoder's tie rule written out: exact halves of
// both signs round away from zero, and values 1/64 off a half or on an
// integer round to the nearest. Every entry stays exact when the
// level-shift offset 128 is taken off and put back. The differential
// tests compare each build's vector body with the scalar loop, which
// under -tags noasm is the scalar loop against itself; this table is
// the expectation that holds in every build.
var roundTies = []struct {
	in   float32
	want int32
}{
	{0.5, 1}, {-0.5, -1}, {1.5, 2}, {-1.5, -2}, {2.5, 3}, {-2.5, -3},
	{127.5, 128}, {-127.5, -128}, {254.5, 255}, {-254.5, -255},
	{4095.5, 4096}, {-4095.5, -4096}, {65535.5, 65536}, {-65535.5, -65536},
	{4194303.5, 4194304}, {-4194303.5, -4194304},
	{2.484375, 2}, {-2.484375, -2}, {2.515625, 3}, {-2.515625, -3},
	{0, 0}, {1, 1}, {-1, -1}, {255, 255}, {-256, -256},
}

// TestRoundTieTable checks the exported rounding kernels against
// roundTies, each entry alone (the scalar tail) and all in one row
// (the vector body, where the build has one): RoundAddRow with and
// without a level-shift offset, and InverseICTRow with zero chroma,
// where each output is round(Y + Off).
func TestRoundTieTable(t *testing.T) {
	n := len(roundTies)
	// The whole table in one row, then every entry alone.
	spans := [][2]int{{0, n}}
	for i := 0; i < n; i++ {
		spans = append(spans, [2]int{i, i + 1})
	}
	zero := make([]float32, n)
	for _, off := range []float32{0, 128} {
		src := make([]float32, n)
		for i, c := range roundTies {
			src[i] = c.in - off
			if src[i]+off != c.in {
				t.Fatalf("table entry %v is not exact at offset %v", c.in, off)
			}
		}
		p := &ICTInvParams{Off: off, RCr: 1.402, GCb: 0.344136, GCr: 0.714136, BCb: 1.772}
		check := func(what string, got []int32, lo int) {
			t.Helper()
			for i, g := range got {
				if c := roundTies[lo+i]; g != c.want {
					t.Errorf("%s %s off %v: round(%v) = %d, want %d", Kernel(), what, off, c.in, g, c.want)
				}
			}
		}
		for _, sp := range spans {
			lo, hi := sp[0], sp[1]
			got := make([]int32, hi-lo)
			RoundAddRow(got, src[lo:hi], off)
			check("RoundAddRow", got, lo)
			r, g, b := make([]int32, hi-lo), make([]int32, hi-lo), make([]int32, hi-lo)
			InverseICTRow(src[lo:hi], zero[lo:hi], zero[lo:hi], r, g, b, p)
			check("InverseICTRow/R", r, lo)
			check("InverseICTRow/G", g, lo)
			check("InverseICTRow/B", b, lo)
		}
	}
}

func TestRCTInv(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range testLengths {
		y0, cb0, cr0 := randI32(rng, n, 1<<12), randI32(rng, n, 1<<12), randI32(rng, n, 1<<12)
		wy, wcb, wcr := append([]int32(nil), y0...), append([]int32(nil), cb0...), append([]int32(nil), cr0...)
		scalarRCTInv(wy, wcb, wcr, 128)
		gy, gcb, gcr := offI32(append([]int32(nil), y0...)), offI32(append([]int32(nil), cb0...)), offI32(append([]int32(nil), cr0...))
		m := rctInvVec(gy, gcb, gcr, 128)
		checkHandled(t, m, n)
		scalarRCTInv(gy[m:], gcb[m:], gcr[m:], 128)
		eqI32(t, fmt.Sprintf("%s/r/n=%d", Kernel(), n), gy, wy)
		eqI32(t, fmt.Sprintf("%s/g/n=%d", Kernel(), n), gcb, wcb)
		eqI32(t, fmt.Sprintf("%s/b/n=%d", Kernel(), n), gcr, wcr)
	}
}

func TestClampI32(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, max := range []int32{255, 4095, 65535} {
		for _, n := range testLengths {
			d0 := randI32(rng, n, 1<<17)
			if n > 1 {
				d0[0] = math.MinInt32
				d0[1] = math.MaxInt32
			}
			want := append([]int32(nil), d0...)
			scalarClampI32(want, max)
			got := offI32(append([]int32(nil), d0...))
			m := clampI32Vec(got, max)
			checkHandled(t, m, n)
			scalarClampI32(got[m:], max)
			eqI32(t, fmt.Sprintf("%s/max=%d/n=%d", Kernel(), max, n), got, want)
		}
	}
}

func TestInterleave2(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range testLengths {
		// n is the pair count; even gets one extra element so the
		// odd-total-length layout of the lifting lines is covered.
		even, odd := randI32(rng, n+1, 1<<30), randI32(rng, n, 1<<30)
		want := make([]int32, 2*n)
		scalarInterleave2I32(want, even, odd)
		got := offI32(make([]int32, 2*n))
		m := il2I32Vec(got, even, odd)
		checkHandled(t, m, n)
		scalarInterleave2I32(got[2*m:], even[m:], odd[m:])
		eqI32(t, fmt.Sprintf("%s/i32/n=%d", Kernel(), n), got, want)

		ef, of := randF32(rng, n+1), randF32(rng, n)
		wantF := make([]float32, 2*n)
		scalarInterleave2F32(wantF, ef, of)
		gotF := offF32(make([]float32, 2*n))
		mf := il2F32Vec(gotF, ef, of)
		checkHandled(t, mf, n)
		scalarInterleave2F32(gotF[2*mf:], ef[mf:], of[mf:])
		eqF32(t, fmt.Sprintf("%s/f32/n=%d", Kernel(), n), gotF, wantF)
	}
}

func TestDeinterleave2(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range testLengths {
		// n is the pair count; src carries one extra sample so the
		// odd-total-length layout of the lifting lines is covered.
		src := randI32(rng, 2*n+1, 1<<30)
		wantE, wantO := make([]int32, n+1), make([]int32, n)
		scalarDeinterleave2I32(wantE, wantO, src)
		gotE, gotO := offI32(make([]int32, n+1)), offI32(make([]int32, n))
		m := dl2I32Vec(gotE, gotO, src)
		checkHandled(t, m, n)
		scalarDeinterleave2I32(gotE[m:], gotO[m:], src[2*m:])
		eqI32(t, fmt.Sprintf("%s/i32/even/n=%d", Kernel(), n), gotE, wantE)
		eqI32(t, fmt.Sprintf("%s/i32/odd/n=%d", Kernel(), n), gotO, wantO)

		srcF := randF32(rng, 2*n+1)
		wantEF, wantOF := make([]float32, n+1), make([]float32, n)
		scalarDeinterleave2F32(wantEF, wantOF, srcF)
		gotEF, gotOF := offF32(make([]float32, n+1)), offF32(make([]float32, n))
		mf := dl2F32Vec(gotEF, gotOF, srcF)
		checkHandled(t, mf, n)
		scalarDeinterleave2F32(gotEF[mf:], gotOF[mf:], srcF[2*mf:])
		eqF32(t, fmt.Sprintf("%s/f32/even/n=%d", Kernel(), n), gotEF, wantEF)
		eqF32(t, fmt.Sprintf("%s/f32/odd/n=%d", Kernel(), n), gotOF, wantOF)
	}
}
