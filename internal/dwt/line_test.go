package dwt

import (
	"fmt"
	"math"
	"testing"

	"j2kcell/internal/simd"
	"j2kcell/internal/workload"
)

// Plain-loop reference forms of the four horizontal lines: index loops
// with clamped neighbours, no kernel dispatch. Every product is wrapped
// in float32(...) so no architecture can fuse it into the neighbouring
// add; the exported lines must match these bit for bit.

func clampIdx(k, hi int) int {
	if k < 0 {
		return 0
	}
	if k > hi {
		return hi
	}
	return k
}

func oracleFwd97Line(x []float32) {
	n := len(x)
	if n <= 1 {
		return
	}
	nl, nh := (n+1)/2, n/2
	low, high := make([]float32, nl), make([]float32, nh)
	// x[2k+2] past the end mirrors to x[n-2]: clamp to n-1, clear bit 0.
	for k := 0; k < nh; k++ {
		high[k] = x[2*k+1] + float32(float32(Alpha97)*(x[2*k]+x[clampIdx(2*k+2, n-1)&^1]))
	}
	for k := 0; k < nl; k++ {
		low[k] = x[2*k] + float32(float32(Beta97)*(high[clampIdx(k-1, nh-1)]+high[clampIdx(k, nh-1)]))
	}
	for k := 0; k < nh; k++ {
		high[k] += float32(float32(Gamma97) * (low[k] + low[clampIdx(k+1, nl-1)]))
	}
	for k := 0; k < nl; k++ {
		low[k] = (low[k] + float32(float32(Delta97)*(high[clampIdx(k-1, nh-1)]+high[clampIdx(k, nh-1)]))) * float32(InvK97)
	}
	for k := 0; k < nh; k++ {
		high[k] *= float32(K97)
	}
	copy(x, low)
	copy(x[nl:], high)
}

func oracleInv97Line(x []float32) {
	n := len(x)
	if n <= 1 {
		return
	}
	nl, nh := (n+1)/2, n/2
	low, high := make([]float32, nl), make([]float32, nh)
	for k := range low {
		low[k] = x[k] * float32(K97)
	}
	for k := range high {
		high[k] = x[nl+k] * float32(InvK97)
	}
	for k := 0; k < nl; k++ {
		low[k] -= float32(float32(Delta97) * (high[clampIdx(k-1, nh-1)] + high[clampIdx(k, nh-1)]))
	}
	for k := 0; k < nh; k++ {
		high[k] -= float32(float32(Gamma97) * (low[k] + low[clampIdx(k+1, nl-1)]))
	}
	for k := 0; k < nl; k++ {
		low[k] -= float32(float32(Beta97) * (high[clampIdx(k-1, nh-1)] + high[clampIdx(k, nh-1)]))
	}
	for k := 0; k < nh; k++ {
		high[k] -= float32(float32(Alpha97) * (low[k] + low[clampIdx(k+1, nl-1)]))
	}
	for k := 0; k < nl; k++ {
		x[2*k] = low[k]
	}
	for k := 0; k < nh; k++ {
		x[2*k+1] = high[k]
	}
}

func oracleFwd53Line(x []int32) {
	n := len(x)
	if n <= 1 {
		return
	}
	nl, nh := (n+1)/2, n/2
	low, high := make([]int32, nl), make([]int32, nh)
	for k := 0; k < nh; k++ {
		high[k] = x[2*k+1] - ((x[2*k] + x[clampIdx(2*k+2, n-1)&^1]) >> 1)
	}
	for k := 0; k < nl; k++ {
		low[k] = x[2*k] + ((high[clampIdx(k-1, nh-1)] + high[clampIdx(k, nh-1)] + 2) >> 2)
	}
	copy(x, low)
	copy(x[nl:], high)
}

func oracleInv53Line(x []int32) {
	n := len(x)
	if n <= 1 {
		return
	}
	nl, nh := (n+1)/2, n/2
	even, odd := make([]int32, nl), make([]int32, nh)
	for k := 0; k < nl; k++ {
		even[k] = x[k] - ((x[nl+clampIdx(k-1, nh-1)] + x[nl+clampIdx(k, nh-1)] + 2) >> 2)
	}
	for k := 0; k < nh; k++ {
		odd[k] = x[nl+k] + ((even[k] + even[clampIdx(k+1, nl-1)]) >> 1)
	}
	for k := 0; k < nl; k++ {
		x[2*k] = even[k]
	}
	for k := 0; k < nh; k++ {
		x[2*k+1] = odd[k]
	}
}

// lineLengths covers every short length (both parities, the n ≤ 3
// clamp-only cases, every vector-tail remainder) and a full image row
// either side of a power of two.
func lineLengths() []int {
	var ns []int
	for n := 1; n <= 130; n++ {
		ns = append(ns, n)
	}
	return append(ns, 1023, 1024, 1025)
}

// TestLinesMatchOracles pins the exported horizontal lines to the
// plain-loop forms above, bit for bit, under the build's kernel set.
func TestLinesMatchOracles(t *testing.T) {
	kern := simd.Kernel()
	for _, n := range lineLengths() {
		rng := workload.NewRNG(uint32(n)*7919 + 1)
		xi := make([]int32, n)
		xf := make([]float32, n)
		for i := range xi {
			xi[i] = int32(rng.Uint32()) >> 8
			xf[i] = float32(xi[i]) / 64
		}
		tmpI, tmpF := make([]int32, n), make([]float32, n)

		checkF := func(name string, line func(x, tmp []float32), oracle func([]float32)) {
			got, want := append([]float32(nil), xf...), append([]float32(nil), xf...)
			line(got, tmpF)
			oracle(want)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s/%s n=%d: x[%d] = %v, oracle %v", kern, name, n, i, got[i], want[i])
				}
			}
		}
		checkI := func(name string, line func(x, tmp []int32), oracle func([]int32)) {
			got, want := append([]int32(nil), xi...), append([]int32(nil), xi...)
			line(got, tmpI)
			oracle(want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/%s n=%d: x[%d] = %d, oracle %d", kern, name, n, i, got[i], want[i])
				}
			}
		}
		checkF("fwd97", Fwd97Line, oracleFwd97Line)
		checkF("inv97", Inv97Line, oracleInv97Line)
		checkI("fwd53", Fwd53Line, oracleFwd53Line)
		checkI("inv53", Inv53Line, oracleInv53Line)
	}
}

// BenchmarkLine prices one horizontal line per filter and direction at
// a full 1024-wide row and its odd neighbour, under the active kernel
// set. Each iteration first restores the input row (a 4 KiB copy) so
// repeated float transforms never drift into Inf/NaN or subnormals.
func BenchmarkLine(b *testing.B) {
	for _, n := range []int{1023, 1024} {
		rng := workload.NewRNG(uint32(n))
		srcI := make([]int32, n)
		srcF := make([]float32, n)
		for i := range srcI {
			srcI[i] = int32(rng.Intn(511)) - 255
			srcF[i] = float32(srcI[i])
		}
		xi, tmpI := make([]int32, n), make([]int32, n)
		xf, tmpF := make([]float32, n), make([]float32, n)
		lines := []struct {
			name string
			run  func()
		}{
			{"fwd97", func() { copy(xf, srcF); Fwd97Line(xf, tmpF) }},
			{"inv97", func() { copy(xf, srcF); Inv97Line(xf, tmpF) }},
			{"fwd53", func() { copy(xi, srcI); Fwd53Line(xi, tmpI) }},
			{"inv53", func() { copy(xi, srcI); Inv53Line(xi, tmpI) }},
		}
		for _, l := range lines {
			b.Run(fmt.Sprintf("%s/%d", l.name, n), func(b *testing.B) {
				b.SetBytes(int64(4 * n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					l.run()
				}
			})
		}
	}
}
