// Package dwt implements the JPEG2000 discrete wavelet transforms:
// the reversible 5/3 integer lifting transform (lossless path) and the
// irreversible 9/7 floating-point lifting transform (lossy path), plus
// the JasPer-style Q13 fixed-point 9/7 lifting step that Table 1 prices
// against the float one.
//
// Vertical filtering is formulated row-wise, exactly as in the paper's
// Algorithms 1 and 2: a "sample" in the lifting recurrence is an entire
// image row, so the column-major walk that ruins cache behaviour never
// happens. Each vertical transform exists in two bit-identical
// variants: the naive three-pass form (split, lift, lift — Algorithm 1
// plus an explicit splitting pass) and the fused single-pass form that
// interleaves the lifting steps and merges the split into them using a
// half-height auxiliary buffer (Algorithm 2 + Figure 3; six passes
// fused to one in the 9/7 case, following Kutil's single-loop scheme).
// The fused forms are what the SPE kernels stream, cutting DMA traffic
// by 3x (5/3) and 6x (9/7).
//
// Boundary handling is whole-sample symmetric extension per ITU-T
// T.800, which for the supports used here reduces to clamping the
// intermediate-array indices to [0, len-1].
package dwt

import "fmt"

// Orientation of a subband.
type Orient int

// Subband orientations.
const (
	LL Orient = iota // low horizontal, low vertical
	HL               // high horizontal, low vertical
	LH               // low horizontal, high vertical
	HH               // high both
)

// String returns the conventional subband name.
func (o Orient) String() string {
	switch o {
	case LL:
		return "LL"
	case HL:
		return "HL"
	case LH:
		return "LH"
	case HH:
		return "HH"
	}
	return fmt.Sprintf("Orient(%d)", int(o))
}

// Band describes one subband's placement inside the deinterleaved
// transform plane. Level is the decomposition level (1 = finest).
type Band struct {
	Level  int
	Orient Orient
	X0, Y0 int
	W, H   int
}

// liftStep is one lifting step of a 1-D line, dst = a ⊕ f(b, c) with b
// and c the two neighbours from the other band. row is its row kernel,
// called as row(dst, a, b, c); one is the same expression on a single
// sample, for the boundary-clamped head and tail, where a kernel call
// would cost more than the sample.
type liftStep[T int32 | float32 | float64] struct {
	row func(dst, a, b, c []T)
	one func(a, b, c T) T
}

// lowStep and highStep are the clamp-aware lifting sweeps every 1-D
// line shares, forward and inverse, 5/3 and 9/7. A line of n samples
// splits into nl = len(low) = ceil(n/2) lows and nh = len(high) =
// floor(n/2) highs. The interior runs as one kernel sweep; only the
// clamped head and tail samples are scalar. dst may equal a (in place)
// but must not overlap the neighbour band.

// lowStep computes low[k] = s(a[k], high[k-1], high[k]) for k in
// [0, nl), the high index clamped to [0, nh-1]: the k = 0 head always
// clamps, and for odd lengths the k = nl-1 tail does too.
func lowStep[T int32 | float32 | float64](low, a, high []T, s liftStep[T]) {
	nl, nh := len(low), len(high)
	m := min(nl, nh)
	low[0] = s.one(a[0], high[0], high[0])
	s.row(low[1:m], a[1:m], high[:m-1], high[1:m])
	if nh < nl {
		low[nl-1] = s.one(a[nl-1], high[nh-1], high[nh-1])
	}
}

// highStep computes high[k] = s(a[k], low[k], low[k+1]) for k in
// [0, nh), the k+1 clamped to nl-1 (reached only by the last sample of
// even lengths).
func highStep[T int32 | float32 | float64](high, a, low []T, s liftStep[T]) {
	nl, nh := len(low), len(high)
	if nl > nh {
		s.row(high, a, low[:nh], low[1:])
		return
	}
	s.row(high[:nh-1], a[:nh-1], low[:nh-1], low[1:])
	high[nh-1] = s.one(a[nh-1], low[nh-1], low[nh-1])
}

// levelDim halves a dimension l times, rounding up (tile origin 0).
func levelDim(n, l int) int {
	for ; l > 0; l-- {
		n = (n + 1) / 2
	}
	return n
}

// Layout returns the subbands of a w×h plane after `levels`
// decompositions, ordered from the coarsest resolution outwards:
// LL_levels, then for l = levels..1: HL_l, LH_l, HH_l. This is the
// packet order for an LRCP progression. Empty bands (zero area) are
// included with W or H zero so callers can skip them explicitly.
func Layout(w, h, levels int) []Band {
	// invariant: levels comes from Options defaults or a COD field already
	// range-checked (0..32) by the codestream parser.
	if levels < 0 {
		panic("dwt: negative levels")
	}
	bands := []Band{{Level: levels, Orient: LL, W: levelDim(w, levels), H: levelDim(h, levels)}}
	for l := levels; l >= 1; l-- {
		lw, lh := levelDim(w, l), levelDim(h, l)     // low sizes at this level
		pw, ph := levelDim(w, l-1), levelDim(h, l-1) // parent sizes
		hw, hh := pw-lw, ph-lh                       // high sizes
		bands = append(bands,
			Band{Level: l, Orient: HL, X0: lw, Y0: 0, W: hw, H: lh},
			Band{Level: l, Orient: LH, X0: 0, Y0: lh, W: lw, H: hh},
			Band{Level: l, Orient: HH, X0: lw, Y0: lh, W: hw, H: hh},
		)
	}
	return bands
}

// MaxLevels returns the deepest useful decomposition for a w×h plane:
// transforming stops paying off once both dimensions reach 1.
func MaxLevels(w, h int) int {
	l := 0
	for w > 1 || h > 1 {
		w, h = (w+1)/2, (h+1)/2
		l++
	}
	return l
}

// forward applies `levels` decompositions with k's kernels in place to
// the w×h region of data (row stride given), producing the standard
// deinterleaved layout with LL at the top-left. Vertical filtering
// runs first, matching the paper's pipeline.
func (k Lifting[T]) forward(data []T, w, h, stride, levels int) {
	aux, tmp := make([]T, AuxLen(w, h)), make([]T, w)
	for l := 0; l < levels; l++ {
		lw, lh := LevelDims(w, h, l)
		if lw <= 1 && lh <= 1 {
			break
		}
		k.Vertical(data, 0, lw, lh, stride, aux)
		k.Rows(data, lw, stride, 0, lh, tmp)
	}
}

// inverse undoes only the coarsest decomposition levels, levels-1 down
// to stop. With stop > 0 the finest `stop` levels stay transformed, so
// the top-left levelDim(w, stop) × levelDim(h, stop) region afterwards
// holds the image at reduced resolution — the basis of
// resolution-progressive decoding.
func (k Lifting[T]) inverse(data []T, w, h, stride, levels, stop int) {
	aux, tmp := make([]T, AuxLen(w, h)), make([]T, w)
	for l := levels - 1; l >= stop; l-- {
		lw, lh := LevelDims(w, h, l)
		if lw <= 1 && lh <= 1 {
			continue
		}
		k.InvRows(data, lw, stride, 0, lh, tmp)
		k.InvVertical(data, 0, lw, lh, stride, aux)
	}
}

// Forward53 applies `levels` reversible 5/3 decompositions in place
// (Lifting53's forward walk).
func Forward53(data []int32, w, h, stride, levels int) { Lifting53.forward(data, w, h, stride, levels) }

// Inverse53 exactly reverses Forward53.
func Inverse53(data []int32, w, h, stride, levels int) {
	Lifting53.inverse(data, w, h, stride, levels, 0)
}

// InverseLevels53 undoes the reversible levels levels-1 down to stop.
func InverseLevels53(data []int32, w, h, stride, levels, stop int) {
	Lifting53.inverse(data, w, h, stride, levels, stop)
}

// Forward97 applies `levels` irreversible 9/7 decompositions in place.
func Forward97(data []float32, w, h, stride, levels int) {
	Lifting97.forward(data, w, h, stride, levels)
}

// Inverse97 reverses Forward97 (to floating-point rounding).
func Inverse97(data []float32, w, h, stride, levels int) {
	Lifting97.inverse(data, w, h, stride, levels, 0)
}

// InverseLevels97 is the irreversible analogue of InverseLevels53.
func InverseLevels97(data []float32, w, h, stride, levels, stop int) {
	Lifting97.inverse(data, w, h, stride, levels, stop)
}
