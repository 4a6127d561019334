package imgmodel

import "sync"

// Plane arenas for the encode pipeline: transform planes are large
// (W×H words) and live only from the component transform until Tier-1
// has consumed them, so recycling them through sync.Pool makes
// steady-state encode allocations near-constant in the number of
// encodes. Pooled planes are NOT zeroed — callers must overwrite every
// sample they later read (the pipeline stages do: MCT writes every row,
// and the subbands tile the plane). Use NewPlane/NewFPlane when zeroed
// contents are required.

var (
	planePool  sync.Pool // *Plane
	fplanePool sync.Pool // *FPlane
)

// GetPlane returns a w×h integer plane from the pool (or a fresh one),
// with unspecified contents inside and outside the live region.
func GetPlane(w, h int) *Plane {
	p, _ := planePool.Get().(*Plane)
	if p == nil {
		return NewPlane(w, h)
	}
	s := padStride(w)
	if n := s * h; cap(p.Data) < n {
		p.Data = make([]int32, n)
	} else {
		p.Data = p.Data[:n]
	}
	p.W, p.H, p.Stride = w, h, s
	return p
}

// PutPlane recycles a plane obtained from GetPlane (or anywhere else —
// the pool adopts its backing array). The caller must not retain any
// reference into p.Data.
func PutPlane(p *Plane) {
	if p != nil {
		planePool.Put(p)
	}
}

// GetFPlane is the float analogue of GetPlane.
func GetFPlane(w, h int) *FPlane {
	p, _ := fplanePool.Get().(*FPlane)
	if p == nil {
		return NewFPlane(w, h)
	}
	s := padStride(w)
	if n := s * h; cap(p.Data) < n {
		p.Data = make([]float32, n)
	} else {
		p.Data = p.Data[:n]
	}
	p.W, p.H, p.Stride = w, h, s
	return p
}

// PutFPlane recycles a float plane. The caller must not retain any
// reference into p.Data.
func PutFPlane(p *FPlane) {
	if p != nil {
		fplanePool.Put(p)
	}
}
