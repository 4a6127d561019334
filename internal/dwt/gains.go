package dwt

import (
	"math"
	"sync"
)

// Subband synthesis L2 gains. Rate control weighs the distortion
// contribution of a coefficient error by the L2 norm of that
// coefficient's synthesis basis vector; quantization step sizes divide
// by the same norms. The norms follow in closed form from the filter
// taps:
//
//   - the level-1 synthesis bases of a low and a high coefficient are
//     read off invLine64 on a short impulse line, so the lifting
//     constants stay the only source of truth; P0 and P1 are their
//     autocorrelations;
//   - a level-l basis is a level-(l-1) basis upsampled and filtered by
//     the low synthesis filter once more, so its autocorrelation is
//     A_l(z) = P0(z)·A_{l-1}(z²), starting from A_1 = P0 (low) or P1
//     (high);
//   - the squared 1-D norm is the lag-0 term of A_l, and lags within
//     ±tapSpan of A_l depend only on lags within ±tapSpan of A_{l-1},
//     so every level costs O(tapSpan²) however wide its basis is;
//   - the 2-D basis is the outer product of two 1-D bases, so band norms
//     are products: HL = LH = gH·gL, HH = gH², LL = gL².

// Filter selects the wavelet for gain computation.
type Filter int

// Supported filters.
const (
	W53 Filter = iota
	W97
)

const (
	tapSpan       = 8  // lags kept: the 9/7 high basis has 9 taps, so P1 spans ±8
	maxGainLevels = 32 // the deepest decomposition a COD segment admits
)

// acorr is a window of an autocorrelation: acorr[tapSpan+k] is lag k.
type acorr [2*tapSpan + 1]float64

// gains1D holds one filter's 1-D synthesis norms by level.
type gains1D struct{ low, high [maxGainLevels + 1]float64 }

var gainTables = [...]func() *gains1D{
	W53: sync.OnceValue(func() *gains1D { return newGains1D(W53) }),
	W97: sync.OnceValue(func() *gains1D { return newGains1D(W97) }),
}

// WarmGains builds the gain table for a filter ahead of its first use.
// The table covers every depth, so levels only selects the entry read.
func WarmGains(f Filter, levels int) { BandGain(f, levels, LL, levels) }

// BandGain returns the synthesis L2 norm for a subband of the given
// orientation at the given level under `levels` total decompositions.
// For orientation LL only level == levels is meaningful.
func BandGain(f Filter, levels int, o Orient, level int) float64 {
	g := gainTables[f]()
	switch o {
	case LL:
		return g.low[levels] * g.low[levels]
	case HH:
		return g.high[level] * g.high[level]
	}
	return g.high[level] * g.low[level]
}

func newGains1D(f Filter) *gains1D {
	p0 := synthesisAcorr(f, false)
	lo, hi := p0, synthesisAcorr(f, true)
	t := &gains1D{}
	t.low[0] = 1
	for l := 1; l <= maxGainLevels; l++ {
		t.low[l], t.high[l] = math.Sqrt(lo[tapSpan]), math.Sqrt(hi[tapSpan])
		lo, hi = nextLevel(&p0, &lo), nextLevel(&p0, &hi)
	}
	return t
}

// synthesisAcorr returns the autocorrelation of the level-1 synthesis
// basis of a low or high coefficient, reconstructed from an impulse in
// the middle of its half of a line too long for any tap to reach the
// boundary.
func synthesisAcorr(f Filter, high bool) acorr {
	const n = 4 * tapSpan
	var x, tmp [n]float64
	pos := n / 4
	if high {
		pos += n / 2
	}
	x[pos] = 1
	invLine64(f, x[:], tmp[:])
	var a acorr
	for k := -tapSpan; k <= tapSpan; k++ {
		var s float64
		for i := max(0, -k); i < min(n, n-k); i++ {
			s += float64(x[i] * x[i+k])
		}
		a[tapSpan+k] = s
	}
	return a
}

// nextLevel returns the ±tapSpan window of P0(z)·A(z²). Lag k sums
// p0[j]·a[(k-j)/2] over even k-j. P0 is nonzero only within ±6 (9/7)
// or ±2 (5/3), so every term it needs lies inside a's window and the
// result is exact, not truncated.
func nextLevel(p0, a *acorr) acorr {
	var out acorr
	for k := -tapSpan; k <= tapSpan; k++ {
		var s float64
		for j := -tapSpan; j <= tapSpan; j++ {
			if (k-j)%2 == 0 {
				s += float64(p0[tapSpan+j] * a[tapSpan+(k-j)/2])
			}
		}
		out[tapSpan+k] = s
	}
	return out
}

// invLine64 is the 1-D inverse in float64: exact lifting inverses with
// the 5/3 floors replaced by their linear counterparts (a - (b+c)/4 is
// a + (-1/4)·(b+c) exactly, as both scale by a power of two).
func invLine64(f Filter, x []float64, tmp []float64) {
	n := len(x)
	if n <= 1 {
		return
	}
	nl, nh := (n+1)/2, n/2
	low, high := tmp[:nl], tmp[nl:n]
	copy(low, x[:nl])
	copy(high, x[nl:n])
	switch f {
	case W53:
		lowStep(low, low, high, lift64(-0.25))
		highStep(high, high, low, lift64(0.5))
	case W97:
		for k := range low {
			low[k] *= K97
		}
		for k := range high {
			high[k] *= InvK97
		}
		lowStep(low, low, high, lift64(-Delta97))
		highStep(high, high, low, lift64(-Gamma97))
		lowStep(low, low, high, lift64(-Beta97))
		highStep(high, high, low, lift64(-Alpha97))
	}
	for k := 0; k < nl; k++ {
		x[2*k] = low[k]
	}
	for k := 0; k < nh; k++ {
		x[2*k+1] = high[k]
	}
}

// lift64 is lift97 in float64 for the gain derivation: a plain loop,
// with the same explicit rounding of the product.
func lift64(c float64) liftStep[float64] {
	one := func(a, b, d float64) float64 { return a + float64(c*(b+d)) }
	return liftStep[float64]{
		row: func(dst, a, b, d []float64) {
			for i := range dst {
				dst[i] = one(a[i], b[i], d[i])
			}
		},
		one: one,
	}
}
