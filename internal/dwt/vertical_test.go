package dwt

import (
	"fmt"
	"math"
	"testing"

	"j2kcell/internal/simd"
	"j2kcell/internal/workload"
)

// Multi-pass reference forms of the vertical synthesis: a scale pass,
// one pass per lifting step over the deinterleaved rows, then three
// copy loops that interleave through aux. Lifting97.InvVertical and
// Lifting53.InvVertical must match these bit for bit.

func oracleInverseVertical97(data []float32, w, h, stride int, aux []float32) {
	if h <= 1 {
		return
	}
	nl, nh := (h+1)/2, h/2
	row := func(i int) []float32 { return data[i*stride : i*stride+w] }
	auxRow := func(k int) []float32 { return aux[k*w : (k+1)*w] }
	low := func(k int) []float32 { return row(clampIdx(k, nl-1)) }
	high := func(k int) []float32 { return row(nl + clampIdx(k, nh-1)) }
	for k := 0; k < nl; k++ {
		simd.MulConstRow(row(k), row(k), float32(K97))
	}
	for k := 0; k < nh; k++ {
		simd.MulConstRow(row(nl+k), row(nl+k), float32(InvK97))
	}
	for k := 0; k < nl; k++ {
		simd.AddMulRow(row(k), row(k), high(k-1), high(k), -float32(Delta97))
	}
	for k := 0; k < nh; k++ {
		simd.AddMulRow(row(nl+k), row(nl+k), row(k), low(k+1), -float32(Gamma97))
	}
	for k := 0; k < nl; k++ {
		simd.AddMulRow(row(k), row(k), high(k-1), high(k), -float32(Beta97))
	}
	for k := 0; k < nh; k++ {
		simd.AddMulRow(row(nl+k), row(nl+k), row(k), low(k+1), -float32(Alpha97))
	}
	for k := 0; k < nh; k++ {
		copy(auxRow(k), row(nl+k))
	}
	for k := nl - 1; k >= 1; k-- {
		copy(row(2*k), row(k))
	}
	for k := 0; k < nh; k++ {
		copy(row(2*k+1), auxRow(k))
	}
}

func oracleInverseVertical53(data []int32, w, h, stride int, aux []int32) {
	if h <= 1 {
		return
	}
	nl, nh := (h+1)/2, h/2
	row := func(i int) []int32 { return data[i*stride : i*stride+w] }
	auxRow := func(k int) []int32 { return aux[k*w : (k+1)*w] }
	for k := 0; k < nl; k++ {
		simd.SubShr2Row(row(k), row(k), row(nl+clampIdx(k-1, nh-1)), row(nl+clampIdx(k, nh-1)))
	}
	for k := 0; k < nh; k++ {
		simd.AddShr1Row(row(nl+k), row(nl+k), row(k), row(clampIdx(k+1, nl-1)))
	}
	for k := 0; k < nh; k++ {
		copy(auxRow(k), row(nl+k))
	}
	for k := nl - 1; k >= 1; k-- {
		copy(row(2*k), row(k))
	}
	for k := 0; k < nh; k++ {
		copy(row(2*k+1), auxRow(k))
	}
}

// TestInvVerticalMatchesOracle pins the vertical synthesis stripes to
// the multi-pass forms above, bit for bit, under the build's kernel
// set. The stripe sits at column 2 of a wider plane whose other columns
// hold a sentinel, so a write outside the column group shows too.
func TestInvVerticalMatchesOracle(t *testing.T) {
	const x0, pad = 2, 3
	kern := simd.Kernel()
	for _, w := range []int{1, 2, 3, 31, 32, 33, 100} {
		stride := x0 + w + pad
		for _, h := range lineLengths() {
			rng := workload.NewRNG(uint32(w*7919+h) + 1)
			xi := make([]int32, stride*h)
			xf := make([]float32, stride*h)
			for i := range xi {
				xi[i] = int32(rng.Uint32()) >> 8
				xf[i] = float32(xi[i]) / 64
			}
			gotF, wantF := append([]float32(nil), xf...), append([]float32(nil), xf...)
			Lifting97.InvVertical(gotF, x0, w, h, stride, make([]float32, AuxLen(w, h)))
			oracleInverseVertical97(wantF[x0:], w, h, stride, make([]float32, AuxLen(w, h)))
			for i := range gotF {
				if math.Float32bits(gotF[i]) != math.Float32bits(wantF[i]) {
					t.Fatalf("%s/97 %dx%d: (%d, %d) = %v, oracle %v", kern, w, h, i%stride-x0, i/stride, gotF[i], wantF[i])
				}
			}
			gotI, wantI := append([]int32(nil), xi...), append([]int32(nil), xi...)
			Lifting53.InvVertical(gotI, x0, w, h, stride, make([]int32, AuxLen(w, h)))
			oracleInverseVertical53(wantI[x0:], w, h, stride, make([]int32, AuxLen(w, h)))
			for i := range gotI {
				if gotI[i] != wantI[i] {
					t.Fatalf("%s/53 %dx%d: (%d, %d) = %d, oracle %d", kern, w, h, i%stride-x0, i/stride, gotI[i], wantI[i])
				}
			}
		}
	}
}

// BenchmarkInvVertical prices the vertical synthesis of a 1024-row
// column group, 512 and 1024 columns wide, under the active kernel set.
// Each iteration first restores the input, off the clock, so repeated
// float syntheses never drift into Inf/NaN or subnormals.
func BenchmarkInvVertical(b *testing.B) {
	const h = 1024
	for _, w := range []int{512, 1024} {
		rng := workload.NewRNG(uint32(w))
		srcI := make([]int32, w*h)
		srcF := make([]float32, w*h)
		for i := range srcI {
			srcI[i] = int32(rng.Intn(511)) - 255
			srcF[i] = float32(srcI[i])
		}
		xi, auxI := make([]int32, w*h), make([]int32, AuxLen(w, h))
		xf, auxF := make([]float32, w*h), make([]float32, AuxLen(w, h))
		for _, f := range []struct {
			name string
			run  func()
		}{
			{"97", func() { Lifting97.InvVertical(xf, 0, w, h, w, auxF) }},
			{"53", func() { Lifting53.InvVertical(xi, 0, w, h, w, auxI) }},
		} {
			b.Run(fmt.Sprintf("%s/%d", f.name, w), func(b *testing.B) {
				b.SetBytes(int64(4 * w * h))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(xf, srcF)
					copy(xi, srcI)
					b.StartTimer()
					f.run()
				}
			})
		}
	}
}
