package simd

import (
	"math/rand"
	"testing"
)

// Per-kernel microbenchmarks, one sub-benchmark per selectable kernel
// set, so a single run prices scalar vs SSE2 vs AVX2 on the same
// machine (the PR's ≥1.5x acceptance bar reads straight off these).
// Row length 1024 ≈ the 9/7 row width of a 1024-wide tile component,
// long enough that dispatch overhead is in the noise.

const benchRow = 1024

// perSet runs fn once per available kernel set with that set active.
func perSet(b *testing.B, fn func(b *testing.B)) {
	prev := Kernel()
	defer Use(prev)
	for _, name := range Available() {
		if err := Use(name); err != nil {
			b.Fatal(err)
		}
		b.Run(name, fn)
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
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 4)
		for i := 0; i < b.N; i++ {
			AddMulRow(d, a, c, e, -1.586134342)
		}
	})
}

func Benchmark_Kernel_AddMulScaleRow(b *testing.B) {
	s, c, e := benchF32(benchRow), benchF32(benchRow), benchF32(benchRow)
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 4)
		for i := 0; i < b.N; i++ {
			AddMulScaleRow(s, c, e, 0.443506852, 0.812893066)
		}
	})
}

func Benchmark_Kernel_MulConstRow(b *testing.B) {
	d, s := benchF32(benchRow), benchF32(benchRow)
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 4)
		for i := 0; i < b.N; i++ {
			MulConstRow(d, s, 1.230174105)
		}
	})
}

func Benchmark_Kernel_QuantizeRow(b *testing.B) {
	d, s := make([]int32, benchRow), benchF32(benchRow)
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 4)
		for i := 0; i < b.N; i++ {
			QuantizeRow(d, s, 512)
		}
	})
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
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 3 * 4)
		for i := 0; i < b.N; i++ {
			ForwardICTRow(r, g, bl, y, cb, cr, p)
		}
	})
}

func Benchmark_Kernel_SubShr1Row(b *testing.B) {
	d, a, c, e := benchI32(benchRow), benchI32(benchRow), benchI32(benchRow), benchI32(benchRow)
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 4)
		for i := 0; i < b.N; i++ {
			SubShr1Row(d, a, c, e)
		}
	})
}

func Benchmark_Kernel_AddShr2Row(b *testing.B) {
	d, a, c, e := benchI32(benchRow), benchI32(benchRow), benchI32(benchRow), benchI32(benchRow)
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 4)
		for i := 0; i < b.N; i++ {
			AddShr2Row(d, a, c, e)
		}
	})
}

func Benchmark_Kernel_Deinterleave2FRow(b *testing.B) {
	src, even, odd := benchF32(benchRow), benchF32(benchRow/2), benchF32(benchRow/2)
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 4)
		for i := 0; i < b.N; i++ {
			Deinterleave2FRow(even, odd, src)
		}
	})
}

func Benchmark_Kernel_ForwardRCTRow(b *testing.B) {
	r, g, bl := benchI32(benchRow), benchI32(benchRow), benchI32(benchRow)
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 3 * 4)
		for i := 0; i < b.N; i++ {
			ForwardRCTRow(r, g, bl, 128)
		}
	})
}

func Benchmark_Kernel_FixAddMulRow(b *testing.B) {
	d, c, e := benchI32(benchRow), benchI32(benchRow), benchI32(benchRow)
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 4)
		for i := 0; i < b.N; i++ {
			FixAddMulRow(d, c, e, -12994)
		}
	})
}

func Benchmark_Kernel_FixScaleRow(b *testing.B) {
	d := benchI32(benchRow)
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 4)
		for i := 0; i < b.N; i++ {
			FixScaleRow(d, 7233)
		}
	})
}

func Benchmark_Kernel_AbsOrRow(b *testing.B) {
	m, c := make([]uint32, benchRow), benchI32(benchRow)
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 4)
		var or uint32
		for i := 0; i < b.N; i++ {
			or |= AbsOrRow(m, c)
		}
		_ = or
	})
}

func Benchmark_Kernel_SignOrRow(b *testing.B) {
	f, c := make([]uint32, benchRow), benchI32(benchRow)
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 4)
		for i := 0; i < b.N; i++ {
			SignOrRow(f, c, 1<<6)
		}
	})
}

func Benchmark_Kernel_PlaneMaskRow(b *testing.B) {
	c := benchI32(benchRow)
	m := make([]uint32, benchRow)
	AbsOrRow(m, c)
	nz, bit := make([]uint64, benchRow/64), make([]uint64, benchRow/64)
	perSet(b, func(b *testing.B) {
		b.SetBytes(benchRow * 4)
		for i := 0; i < b.N; i++ {
			PlaneMaskRow(nz, bit, m, 1)
		}
	})
}
