package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"j2kcell/internal/dwt"
	"j2kcell/internal/simd"
)

func TestQuantizeKnownValues(t *testing.T) {
	src := []float32{0, 0.49, 0.5, 1.49, -0.49, -0.5, -3.2}
	dst := make([]int32, len(src))
	QuantizeRow(dst, src, 0.5)
	want := []int32{0, 0, 1, 2, 0, -1, -6}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("q(%v)=%d, want %d", src[i], dst[i], want[i])
		}
	}
}

func TestDequantizeMidpoint(t *testing.T) {
	src := []int32{0, 1, -1, 10}
	dst := make([]float32, len(src))
	DequantizeRow(dst, src, 2.0)
	want := []float32{0, 3, -3, 21}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dq(%d)=%v, want %v", src[i], dst[i], want[i])
		}
	}
}

func TestPropQuantErrorBounded(t *testing.T) {
	f := func(raw int16, d8 uint8) bool {
		delta := float32(d8%50+1) / 10
		v := float32(raw) / 16
		var q [1]int32
		QuantizeRow(q[:], []float32{v}, delta)
		var r [1]float32
		DequantizeRow(r[:], q[:], delta)
		// Midpoint reconstruction error is at most Δ/2 — except in the
		// deadzone, whose bin is 2Δ wide, where it can reach Δ. A small
		// slack covers float32 rounding at cell boundaries.
		bound := float64(delta) / 2
		if q[0] == 0 {
			bound = float64(delta)
		}
		return math.Abs(float64(r[0]-v)) <= bound+math.Abs(float64(v))*1e-5+1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantSignSymmetry(t *testing.T) {
	f := func(raw int16, d8 uint8) bool {
		delta := float32(d8%50+1) / 10
		v := float32(raw) / 8
		var qp, qn [1]int32
		QuantizeRow(qp[:], []float32{v}, delta)
		QuantizeRow(qn[:], []float32{-v}, delta)
		return qp[0] == -qn[0] // deadzone is symmetric around 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStepForTracksGain(t *testing.T) {
	// Deeper (higher-gain) bands must get finer steps.
	s1 := StepFor(DefaultBaseDelta, 5, dwt.HL, 1)
	s5 := StepFor(DefaultBaseDelta, 5, dwt.HL, 5)
	if s5 >= s1 {
		t.Fatalf("step not finer at deeper level: L1=%v L5=%v", s1, s5)
	}
	// And HH bands get coarser steps than HL at the same level.
	if StepFor(DefaultBaseDelta, 5, dwt.HH, 1) <= StepFor(DefaultBaseDelta, 5, dwt.HL, 1) {
		t.Fatal("HH step should be coarser than HL")
	}
}

// TestDequantizeBlockMatchesRows pins DequantizeBlock bit for bit to
// DequantizeRow applied row by row, at odd widths and destination strides, and checks it leaves
// every destination sample outside the w×h block untouched.
func TestDequantizeBlockMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const delta = float32(0.37)
	sentinel := float32(math.NaN())
	kern := simd.Kernel()
	for _, w := range []int{1, 3, 7, 8, 9, 17, 31, 33, 64} {
		for _, pad := range []int{0, 1, 5, 16} {
			h := 1 + (w*3+pad)%11
			stride := w + pad
			src := make([]int32, w*h)
			for i := range src {
				src[i] = rng.Int31n(1<<12) - 1<<11
			}
			src[0] = 0
			want := make([]float32, stride*h+pad)
			for i := range want {
				want[i] = sentinel
			}
			got := append([]float32(nil), want...)
			for y := 0; y < h; y++ {
				DequantizeRow(want[y*stride:y*stride+w], src[y*w:y*w+w], delta)
			}
			DequantizeBlock(got, stride, src, w, h, delta)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s w=%d stride=%d: sample %d = %v, want %v", kern, w, stride, i, got[i], want[i])
				}
			}
		}
	}
}
