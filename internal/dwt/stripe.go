package dwt

// The kernel tables the level walks run: the serial Forward/Inverse
// walks below and the stage-based native pipeline's
// (internal/codec.Pipeline). Every entry point is stripe-safe. The vertical lifting recurrences never mix
// columns — every operation is a row-vector op applied elementwise — so
// a vertical analysis restricted to a column group [x0, x0+cw) is
// bit-identical to the same columns of a full-width sweep. That is the
// paper's §3.2 decomposition: cache-line column groups are the vertical
// parallel unit, rows are the horizontal one. The horizontal filter
// never mixes rows, so row ranges are likewise independent.

// LevelDims returns the low-pass region size after l decompositions of
// a w×h plane (the region the level-(l+1) transform operates on).
func LevelDims(w, h, l int) (int, int) { return levelDim(w, l), levelDim(h, l) }

// AuxLen returns the auxiliary buffer length (in words) the fused
// vertical analyses need for a cw-wide, lh-high region: half the rows.
func AuxLen(cw, lh int) int { return ((lh + 1) / 2) * cw }

// Lifting is one filter's kernel table: the fused vertical analysis
// and synthesis the column-group phases run, and the 1-D line analysis
// and synthesis the row-stripe phases apply row by row. Lifting53 and
// Lifting97 are the two filters; each level walk — serial here, staged
// in the codec pipeline — is written once over them.
type Lifting[T int32 | float32] struct {
	vertical, invVertical func(data []T, w, h, stride int, aux []T)
	line, invLine         func(x, tmp []T)
}

// The reversible 5/3 and irreversible 9/7 kernel tables.
var (
	Lifting53 = Lifting[int32]{Vertical53Fused, inverseVertical53, Fwd53Line, Inv53Line}
	Lifting97 = Lifting[float32]{Vertical97Fused, inverseVertical97, Fwd97Line, Inv97Line}
)

// Vertical runs the fused vertical analysis over the column group
// [x0, x0+cw) of an lh-high region. aux needs AuxLen(cw, lh) words;
// its prior contents are irrelevant (write-before-read). Bit-identical
// to the corresponding columns of a full-width sweep.
func (k Lifting[T]) Vertical(data []T, x0, cw, lh, stride int, aux []T) {
	k.vertical(data[x0:], cw, lh, stride, aux)
}

// InvVertical runs the vertical synthesis over the column group
// [x0, x0+cw) of an lh-high region, under Vertical's rules.
func (k Lifting[T]) InvVertical(data []T, x0, cw, lh, stride int, aux []T) {
	k.invVertical(data[x0:], cw, lh, stride, aux)
}

// Rows applies the 1-D analysis to rows [y0, y1) of the lw-wide
// region. tmp needs lw words. Rows are independent, so disjoint row
// ranges may run concurrently.
func (k Lifting[T]) Rows(data []T, lw, stride, y0, y1 int, tmp []T) {
	eachRow(k.line, data, lw, stride, y0, y1, tmp)
}

// InvRows applies the 1-D synthesis to rows [y0, y1) of the lw-wide
// region, under Rows' rules.
func (k Lifting[T]) InvRows(data []T, lw, stride, y0, y1 int, tmp []T) {
	eachRow(k.invLine, data, lw, stride, y0, y1, tmp)
}

// eachRow applies line to rows [y0, y1) of the lw-wide region; a
// one-sample line is its own transform.
func eachRow[T int32 | float32](line func(x, tmp []T), data []T, lw, stride, y0, y1 int, tmp []T) {
	if lw <= 1 {
		return
	}
	for r := y0; r < y1; r++ {
		line(data[r*stride:r*stride+lw], tmp)
	}
}
