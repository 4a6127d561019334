package simd

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// Fuzz harnesses: feed arbitrary bytes as row contents and check every
// available vector kernel set against the scalar oracle bit for bit.
// The byte stream is split into float32/int32 lanes, so the fuzzer can
// reach NaNs, infinities, denormals, and both int32 extremes.

func bytesToF32(data []byte) []float32 {
	out := make([]float32, len(data)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
	}
	return out
}

func bytesToU32(data []byte) []uint32 {
	out := make([]uint32, len(data)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	return out
}

func bytesToI32(data []byte) []int32 {
	out := make([]int32, len(data)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(data[i*4:]))
	}
	return out
}

func FuzzAddMulF32(f *testing.F) {
	f.Add([]byte("seed-row-data-for-fuzzing-0123456789abcdef"), float32(-1.586134342))
	f.Add(make([]byte, 97), float32(0.25))
	f.Fuzz(func(t *testing.T, data []byte, k float32) {
		row := bytesToF32(data)
		n := len(row) / 4
		a, b, c := row[:n], row[n:2*n], row[2*n:3*n]
		want := make([]float32, n)
		scalarAddMulF32(want, a, b, c, k)
		for _, ks := range vectorSets() {
			got := offF32(make([]float32, n))
			m := ks.addMulF32(got, a, b, c, k)
			scalarAddMulF32(got[m:], a[m:], b[m:], c[m:], k)
			eqF32(t, fmt.Sprintf("%s/n=%d", ks.name, n), got, want)
		}
	})
}

func FuzzQuantF32(f *testing.F) {
	f.Add([]byte("quantizer-fuzz-seed-row-payload!!"), float32(1024))
	f.Fuzz(func(t *testing.T, data []byte, inv float32) {
		src := bytesToF32(data)
		want := make([]int32, len(src))
		scalarQuantF32(want, src, inv)
		for _, ks := range vectorSets() {
			got := offI32(make([]int32, len(src)))
			m := ks.quantF32(got, src, inv)
			scalarQuantF32(got[m:], src[m:], inv)
			eqI32(t, fmt.Sprintf("%s/n=%d", ks.name, len(src)), got, want)
		}
	})
}

func FuzzFixAddMul(f *testing.F) {
	f.Add([]byte("fixed-point-fuzz-seed-payload-97!"), int32(-12994))
	f.Fuzz(func(t *testing.T, data []byte, k int32) {
		// Clamp k to the documented precondition of the vector
		// decomposition; the lifting constants are all far smaller.
		k %= 1 << 17
		row := bytesToI32(data)
		n := len(row) / 3
		d0, b, c := row[:n], row[n:2*n], row[2*n:3*n]
		want := append([]int32(nil), d0...)
		scalarFixAddMul(want, b, c, k)
		for _, ks := range vectorSets() {
			got := offI32(append([]int32(nil), d0...))
			m := ks.fixAddMul(got, b, c, k)
			scalarFixAddMul(got[m:], b[m:], c[m:], k)
			eqI32(t, fmt.Sprintf("%s/k=%d/n=%d", ks.name, k, n), got, want)
		}
	})
}

func FuzzLift53Rows(f *testing.F) {
	f.Add([]byte("reversible-lifting-row-fuzz-seed"))
	f.Fuzz(func(t *testing.T, data []byte) {
		row := bytesToI32(data)
		n := len(row) / 3
		a, b, c := row[:n], row[n:2*n], row[2*n:3*n]
		type kc struct {
			name   string
			scalar func(dst, a, b, c []int32)
			vec    func(ks *kernels) func(dst, a, b, c []int32) int
		}
		for _, tc := range []kc{
			{"addShr1", scalarAddShr1I32, func(ks *kernels) func(dst, a, b, c []int32) int { return ks.addShr1I32 }},
			{"subShr1", scalarSubShr1I32, func(ks *kernels) func(dst, a, b, c []int32) int { return ks.subShr1I32 }},
			{"addShr2", scalarAddShr2I32, func(ks *kernels) func(dst, a, b, c []int32) int { return ks.addShr2I32 }},
			{"subShr2", scalarSubShr2I32, func(ks *kernels) func(dst, a, b, c []int32) int { return ks.subShr2I32 }},
		} {
			want := make([]int32, n)
			tc.scalar(want, a, b, c)
			for _, ks := range vectorSets() {
				got := offI32(make([]int32, n))
				m := tc.vec(ks)(got, a, b, c)
				tc.scalar(got[m:], a[m:], b[m:], c[m:])
				eqI32(t, fmt.Sprintf("%s/%s/n=%d", tc.name, ks.name, n), got, want)
			}
		}
	})
}

func FuzzT1Masks(f *testing.F) {
	f.Add([]byte("tier1-stripe-mask-fuzz-seed-data"), uint32(1<<6))
	f.Fuzz(func(t *testing.T, data []byte, bit uint32) {
		coef := bytesToI32(data)
		n := len(coef)
		wantMag := make([]uint32, n)
		wantOr := scalarAbsOr(wantMag, coef)
		wantFlags := make([]uint32, n)
		scalarSignOr(wantFlags, coef, bit)
		for _, ks := range vectorSets() {
			gotMag := offU32(make([]uint32, n))
			m, or := ks.absOr(gotMag, coef)
			or |= scalarAbsOr(gotMag[m:], coef[m:])
			eqU32(t, fmt.Sprintf("absOr/%s/n=%d", ks.name, n), gotMag, wantMag)
			if or != wantOr {
				t.Fatalf("absOr/%s/n=%d: or = %#x, want %#x", ks.name, n, or, wantOr)
			}
			gotFlags := offU32(make([]uint32, n))
			m = ks.signOr(gotFlags, coef, bit)
			scalarSignOr(gotFlags[m:], coef[m:], bit)
			eqU32(t, fmt.Sprintf("signOr/%s/n=%d", ks.name, n), gotFlags, wantFlags)
		}
	})
}

// FuzzPlaneMaskRow drives PlaneMaskRow with raw magnitude lanes and a
// fuzzer-chosen plane under every kernel set.
func FuzzPlaneMaskRow(f *testing.F) {
	f.Add([]byte("ht-plane-mask-fuzz-seed-row-0123456789abcdef-ht-plane-mask"), uint8(1))
	f.Add([]byte{0, 0, 0, 0x80, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, p8 uint8) {
		prev := Kernel()
		defer Use(prev)
		mag := bytesToU32(data)
		for _, name := range Available() {
			if err := Use(name); err != nil {
				t.Fatal(err)
			}
			checkPlaneMask(t, name, mag, uint(p8%32))
		}
	})
}

// FuzzInterleave2 drives both shuffles with raw lanes: the float forms
// must move NaN payloads and signed zeros untouched, like the scalar
// copies.
func FuzzInterleave2(f *testing.F) {
	f.Add([]byte("interleave-deinterleave-fuzz-seed-rows!"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytesToF32(data)
		n := len(src) / 2
		wantE, wantO := make([]float32, n), make([]float32, n)
		scalarDeinterleave2F32(wantE, wantO, src)
		want := make([]float32, 2*n)
		scalarInterleave2F32(want, wantE, wantO)
		for _, ks := range vectorSets() {
			name := fmt.Sprintf("%s/n=%d", ks.name, n)
			gotE, gotO := offF32(make([]float32, n)), offF32(make([]float32, n))
			m := ks.dl2F32(gotE, gotO, src)
			scalarDeinterleave2F32(gotE[m:], gotO[m:], src[2*m:])
			eqF32(t, "dl2/even/"+name, gotE, wantE)
			eqF32(t, "dl2/odd/"+name, gotO, wantO)
			got := offF32(make([]float32, 2*n))
			m = ks.il2F32(got, gotE, gotO)
			scalarInterleave2F32(got[2*m:], gotE[m:], gotO[m:])
			eqF32(t, "il2/"+name, got, want)
		}
	})
}
