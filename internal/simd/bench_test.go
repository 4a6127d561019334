package simd

import (
	"math/rand"
	"testing"
)

// Per-kernel microbenchmarks, each with a "scalar" row (the pure-Go
// oracle loop) and a "vec" row (the exported wrapper, so the build's
// kernel set), so a single run prices the scalar loop against the
// vector set on the same machine. Under noasm the two rows run the same
// loop. Row length 1024 ≈ the 9/7 row width of a 1024-wide tile
// component, long enough that call overhead is in the noise.

const benchRow = 1024

// scalarVsVec runs scalar as the "scalar" row and vec as the "vec" row,
// each call processing a row of size bytes.
func scalarVsVec(b *testing.B, size int64, scalar, vec func()) {
	for _, r := range []struct {
		name string
		fn   func()
	}{{"scalar", scalar}, {"vec", vec}} {
		b.Run(r.name, func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				r.fn()
			}
		})
	}
}

func benchF32(n int) []float32 {
	rng := rand.New(rand.NewSource(42))
	s := make([]float32, n)
	for i := range s {
		s[i] = (rng.Float32() - 0.5) * 512
	}
	return s
}

func benchI32(n int) []int32 {
	rng := rand.New(rand.NewSource(43))
	s := make([]int32, n)
	for i := range s {
		s[i] = rng.Int31n(65536) - 32768
	}
	return s
}

func Benchmark_Kernel_AddMulRow(b *testing.B) {
	d, a, c, e := benchF32(benchRow), benchF32(benchRow), benchF32(benchRow), benchF32(benchRow)
	scalarVsVec(b, benchRow*4,
		func() { scalarAddMulF32(d, a, c, e, -1.586134342) },
		func() { AddMulRow(d, a, c, e, -1.586134342) })
}

func Benchmark_Kernel_AddMulScaleRow(b *testing.B) {
	s, c, e := benchF32(benchRow), benchF32(benchRow), benchF32(benchRow)
	scalarVsVec(b, benchRow*4,
		func() { scalarAddMulScaleF32(s, c, e, 0.443506852, 0.812893066) },
		func() { AddMulScaleRow(s, c, e, 0.443506852, 0.812893066) })
}

func Benchmark_Kernel_MulConstRow(b *testing.B) {
	d, s := benchF32(benchRow), benchF32(benchRow)
	scalarVsVec(b, benchRow*4,
		func() { scalarMulConstF32(d, s, 1.230174105) },
		func() { MulConstRow(d, s, 1.230174105) })
}

func Benchmark_Kernel_QuantizeRow(b *testing.B) {
	d, s := make([]int32, benchRow), benchF32(benchRow)
	scalarVsVec(b, benchRow*4,
		func() { scalarQuantF32(d, s, 512) },
		func() { QuantizeRow(d, s, 512) })
}

func Benchmark_Kernel_ForwardICTRow(b *testing.B) {
	r, g, bl := benchI32(benchRow), benchI32(benchRow), benchI32(benchRow)
	y, cb, cr := make([]float32, benchRow), make([]float32, benchRow), make([]float32, benchRow)
	p := &ICTParams{
		Off: 128,
		YR:  0.299, YG: 0.587, YB: 0.114,
		CbR: -0.168736, CbG: -0.331264, CbB: 0.5,
		CrR: 0.5, CrG: -0.418688, CrB: -0.081312,
	}
	scalarVsVec(b, benchRow*3*4,
		func() { scalarICTFwd(r, g, bl, y, cb, cr, p) },
		func() { ForwardICTRow(r, g, bl, y, cb, cr, p) })
}

func Benchmark_Kernel_SubShr1Row(b *testing.B) {
	d, a, c, e := benchI32(benchRow), benchI32(benchRow), benchI32(benchRow), benchI32(benchRow)
	scalarVsVec(b, benchRow*4,
		func() { scalarSubShr1I32(d, a, c, e) },
		func() { SubShr1Row(d, a, c, e) })
}

func Benchmark_Kernel_AddShr2Row(b *testing.B) {
	d, a, c, e := benchI32(benchRow), benchI32(benchRow), benchI32(benchRow), benchI32(benchRow)
	scalarVsVec(b, benchRow*4,
		func() { scalarAddShr2I32(d, a, c, e) },
		func() { AddShr2Row(d, a, c, e) })
}

func Benchmark_Kernel_Deinterleave2FRow(b *testing.B) {
	src, even, odd := benchF32(benchRow), benchF32(benchRow/2), benchF32(benchRow/2)
	scalarVsVec(b, benchRow*4,
		func() { scalarDeinterleave2F32(even, odd, src) },
		func() { Deinterleave2FRow(even, odd, src) })
}

func Benchmark_Kernel_ForwardRCTRow(b *testing.B) {
	r, g, bl := benchI32(benchRow), benchI32(benchRow), benchI32(benchRow)
	scalarVsVec(b, benchRow*3*4,
		func() { scalarRCTFwd(r, g, bl, 128) },
		func() { ForwardRCTRow(r, g, bl, 128) })
}

func Benchmark_Kernel_FixAddMulRow(b *testing.B) {
	d, c, e := benchI32(benchRow), benchI32(benchRow), benchI32(benchRow)
	scalarVsVec(b, benchRow*4,
		func() { scalarFixAddMul(d, c, e, -12994) },
		func() { FixAddMulRow(d, c, e, -12994) })
}

func Benchmark_Kernel_AbsOrRow(b *testing.B) {
	m, c := make([]uint32, benchRow), benchI32(benchRow)
	scalarVsVec(b, benchRow*4,
		func() { scalarAbsOr(m, c) },
		func() { AbsOrRow(m, c) })
}

func Benchmark_Kernel_SignOrRow(b *testing.B) {
	f, c := make([]uint32, benchRow), benchI32(benchRow)
	scalarVsVec(b, benchRow*4,
		func() { scalarSignOr(f, c, 1<<6) },
		func() { SignOrRow(f, c, 1<<6) })
}

func Benchmark_Kernel_PlaneMaskRow(b *testing.B) {
	c := benchI32(benchRow)
	m := make([]uint32, benchRow)
	AbsOrRow(m, c)
	nz, bit := make([]uint64, benchRow/64), make([]uint64, benchRow/64)
	scalarVsVec(b, benchRow*4,
		func() { scalarPlaneMask(nz, bit, m, 1, 0) },
		func() { PlaneMaskRow(nz, bit, m, 1) })
}
