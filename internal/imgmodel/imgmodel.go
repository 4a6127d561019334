// Package imgmodel defines the planar image representation shared by
// the JPEG2000 codec stages: whole-sample components stored as 4-byte
// integers (or floats mid-pipeline in the irreversible path) with rows
// padded to cache-line multiples, matching the paper's row-padding
// convention so planes can be handed to the Cell model zero-copy.
package imgmodel

import (
	"fmt"
	"math"
	"slices"
)

// StrideAlign is the row padding granule in 4-byte words (one 128-byte
// cache line). It is the one padding rule: the codec's planes and the
// Cell model's arrays (decomp.Array) both pad with PadStride.
const StrideAlign = 32

// PadStride rounds a width in words up to a whole number of cache
// lines.
func PadStride(w int) int { return (w + StrideAlign - 1) / StrideAlign * StrideAlign }

// Sample is the set of sample types a plane holds: integers on the
// reversible path, floats mid-pipeline on the irreversible one.
type Sample interface{ int32 | float32 }

// Samples is one padded sample plane: H rows of W samples, row r at
// Data[r*Stride:], with Stride a multiple of StrideAlign.
type Samples[T Sample] struct {
	Data   []T
	W, H   int
	Stride int
}

// Plane is one image component of integer samples.
type Plane = Samples[int32]

// FPlane is a float component used mid-pipeline in the irreversible
// (lossy) path between the ICT and quantization.
type FPlane = Samples[float32]

// New allocates a zeroed W×H plane with padded rows.
func New[T Sample](w, h int) *Samples[T] {
	// invariant: callers derive w,h from geometry already validated at the
	// API boundary (validateImage, codestream SIZ checks); 0 here is a bug.
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgmodel: invalid plane size %dx%d", w, h))
	}
	s := PadStride(w)
	return &Samples[T]{Data: make([]T, s*h), W: w, H: h, Stride: s}
}

// Row returns row r restricted to the plane width.
func (p *Samples[T]) Row(r int) []T { return p.Data[r*p.Stride : r*p.Stride+p.W] }

// At returns the sample at row r, column c.
func (p *Samples[T]) At(r, c int) T { return p.Data[r*p.Stride+c] }

// Set stores v at row r, column c.
func (p *Samples[T]) Set(r, c int, v T) { p.Data[r*p.Stride+c] = v }

// Clone returns a deep copy of the plane.
func (p *Samples[T]) Clone() *Samples[T] {
	q := *p
	q.Data = append([]T(nil), p.Data...)
	return &q
}

// Equal reports whether two planes have identical geometry and samples
// (padding words are ignored).
func (p *Samples[T]) Equal(q *Samples[T]) bool {
	if p.W != q.W || p.H != q.H {
		return false
	}
	for r := 0; r < p.H; r++ {
		if !slices.Equal(p.Row(r), q.Row(r)) {
			return false
		}
	}
	return true
}

// View returns the w×h rectangle at (x0, y0) of p without copying:
// its Data starts at sample (x0, y0) and keeps p's Stride, so row r of
// the view is row y0+r of p from column x0. A view's rows are not
// contiguous in general — copy it row by row, never as one block —
// and a view must never go to Put: the pool would hand p's samples to
// another user.
func (p *Samples[T]) View(x0, y0, w, h int) *Samples[T] {
	off := y0*p.Stride + x0
	end := off + (h-1)*p.Stride + w
	return &Samples[T]{Data: p.Data[off:end:end], W: w, H: h, Stride: p.Stride}
}

// Image is a planar image: all components have full resolution (no
// chroma subsampling, as in the paper's RGB BMP workload).
type Image struct {
	W, H  int
	Depth int // bits per sample, e.g. 8
	Comps []*Plane
}

// NewImage allocates an image with n zeroed components.
func NewImage(w, h, n, depth int) *Image {
	img := &Image{W: w, H: h, Depth: depth}
	for i := 0; i < n; i++ {
		img.Comps = append(img.Comps, New[int32](w, h))
	}
	return img
}

// Clone returns a deep copy of the image.
func (img *Image) Clone() *Image {
	out := &Image{W: img.W, H: img.H, Depth: img.Depth}
	for _, c := range img.Comps {
		out.Comps = append(out.Comps, c.Clone())
	}
	return out
}

// Equal reports whether two images are sample-identical.
func (img *Image) Equal(o *Image) bool {
	if img.W != o.W || img.H != o.H || img.Depth != o.Depth || len(img.Comps) != len(o.Comps) {
		return false
	}
	for i := range img.Comps {
		if !img.Comps[i].Equal(o.Comps[i]) {
			return false
		}
	}
	return true
}

// PSNR computes the peak signal-to-noise ratio in dB between img and a
// reconstruction, over all components. Identical images return +Inf.
func (img *Image) PSNR(rec *Image) float64 {
	// invariant: PSNR is a test/benchmark metric between images the caller
	// constructed with matching geometry; never fed decoder output directly.
	if img.W != rec.W || img.H != rec.H || len(img.Comps) != len(rec.Comps) {
		panic("imgmodel: PSNR geometry mismatch")
	}
	var se float64
	n := 0
	for i := range img.Comps {
		a, b := img.Comps[i], rec.Comps[i]
		for r := 0; r < a.H; r++ {
			ra, rb := a.Row(r), b.Row(r)
			for c := range ra {
				d := float64(ra[c] - rb[c])
				se += float64(d * d)
				n++
			}
		}
	}
	if se == 0 {
		return math.Inf(1)
	}
	peak := float64(int(1)<<img.Depth - 1)
	mse := se / float64(n)
	return 10 * math.Log10(peak*peak/mse)
}

// SubImage copies the rectangle (x0, y0, w, h) into a new image. The
// codec reads and writes rectangles through View instead.
func (img *Image) SubImage(x0, y0, w, h int) *Image {
	out := NewImage(w, h, len(img.Comps), img.Depth)
	for c, p := range img.Comps {
		for y := 0; y < h; y++ {
			copy(out.Comps[c].Row(y), p.Row(y0 + y)[x0:x0+w])
		}
	}
	return out
}

// View returns the w×h rectangle at (x0, y0) of img without copying:
// every component of the view is a plane view (Samples.View) sharing
// img's samples, so writes through the view land in img. The codec
// reads tiles through views and writes decoded tiles and windows into
// their place in the output through them.
func (img *Image) View(x0, y0, w, h int) *Image {
	out := &Image{W: w, H: h, Depth: img.Depth, Comps: make([]*Plane, len(img.Comps))}
	for c, p := range img.Comps {
		out.Comps[c] = p.View(x0, y0, w, h)
	}
	return out
}
