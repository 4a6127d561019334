package dwt

import "sync"

// Convolution-based 9/7 analysis, the structure used by the Muta et al.
// encoder the paper compares against (their DWT partitions the image
// into overlapping 128×128 tiles and filters by direct convolution).
// The filter taps are derived numerically from the lifting
// implementation, so in the interior the two agree to rounding error;
// the derivation doubles as a cross-check that the lifting
// factorization really implements a 9/7 filter bank.

var (
	convOnce sync.Once
	convLow  [9]float32 // analysis low-pass taps, offsets -4..+4
	convHigh [7]float32 // analysis high-pass taps, offsets -3..+3
)

// deriveConvTaps recovers the filter taps by pushing unit impulses
// through the 1-D lifting analysis on a long line and reading off the
// coefficients' dependence on input position.
func deriveConvTaps() {
	const n = 64
	tmp := make([]float32, n)
	x := make([]float32, n)
	// low[k] = sum_m h[m] x[2k+m]: probe output low[n/4] (position 2k = n/2).
	k := n / 4
	for m := -4; m <= 4; m++ {
		for i := range x {
			x[i] = 0
		}
		x[2*k+m] = 1
		Fwd97Line(x, tmp)
		convLow[m+4] = x[k]
	}
	// high[j] = sum_m g[m] x[2j+1+m]: probe high[n/4] (position n/2+1).
	nl := n / 2
	j := n / 4
	for m := -3; m <= 3; m++ {
		for i := range x {
			x[i] = 0
		}
		x[2*j+1+m] = 1
		Fwd97Line(x, tmp)
		convHigh[m+3] = x[nl+j]
	}
}

// ConvTaps returns the derived analysis filter taps (low, high).
func ConvTaps() ([9]float32, [7]float32) {
	convOnce.Do(deriveConvTaps)
	return convLow, convHigh
}

// mirror reflects an index into [0, n) with whole-sample symmetry.
func mirror(i, n int) int {
	for i < 0 || i >= n {
		if i < 0 {
			i = -i
		}
		if i >= n {
			i = 2*(n-1) - i
		}
	}
	return i
}

// Fwd97ConvLine performs 1-D 9/7 analysis by direct convolution,
// writing the deinterleaved result through tmp.
func Fwd97ConvLine(x []float32, tmp []float32) {
	n := len(x)
	if n <= 1 {
		return
	}
	convOnce.Do(deriveConvTaps)
	nl, nh := (n+1)/2, n/2
	low, high := tmp[:nl], tmp[nl:n]
	for k := 0; k < nl; k++ {
		var s float32
		for m := -4; m <= 4; m++ {
			s += float32(convLow[m+4] * x[mirror(2*k+m, n)])
		}
		low[k] = s
	}
	for k := 0; k < nh; k++ {
		var s float32
		for m := -3; m <= 3; m++ {
			s += float32(convHigh[m+3] * x[mirror(2*k+1+m, n)])
		}
		high[k] = s
	}
	copy(x, tmp[:n])
}

// Forward97Conv applies `levels` decompositions using direct
// convolution in both directions (columns are filtered through a
// transposed scratch line, reproducing the column-walk the lifting
// row formulation avoids).
func Forward97Conv(data []float32, w, h, stride, levels int) {
	maxd := w
	if h > maxd {
		maxd = h
	}
	col := make([]float32, maxd)
	tmp := make([]float32, maxd)
	for l := 0; l < levels; l++ {
		lw, lh := levelDim(w, l), levelDim(h, l)
		if lw <= 1 && lh <= 1 {
			break
		}
		if lh > 1 {
			for c := 0; c < lw; c++ {
				for r := 0; r < lh; r++ {
					col[r] = data[r*stride+c]
				}
				Fwd97ConvLine(col[:lh], tmp)
				for r := 0; r < lh; r++ {
					data[r*stride+c] = col[r]
				}
			}
		}
		if lw > 1 {
			for r := 0; r < lh; r++ {
				Fwd97ConvLine(data[r*stride:r*stride+lw], tmp)
			}
		}
	}
}
