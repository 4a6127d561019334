package imgmodel

import (
	"sync"
	"sync/atomic"
)

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
	fill       atomic.Pointer[poolFill]
)

type poolFill struct {
	i int32
	f float32
}

// SetPoolFill makes every later GetPlane fill its whole plane, stride
// padding included, with i and every later GetFPlane with f, until
// ClearPoolFill. Tests use it to make the pools' contents
// deterministic: zero for a clean reference, sentinels (a NaN, say) to
// prove a stage writes every sample it later reads. Do not call it
// while a codec operation is in flight.
func SetPoolFill(i int32, f float32) { fill.Store(&poolFill{i, f}) }

// ClearPoolFill restores unspecified pooled-plane contents.
func ClearPoolFill() { fill.Store(nil) }

// GetPlane returns a w×h integer plane from the pool (or a fresh one),
// with unspecified contents inside and outside the live region.
func GetPlane(w, h int) *Plane {
	p, _ := planePool.Get().(*Plane)
	if p == nil {
		p = NewPlane(w, h)
	}
	s := padStride(w)
	if n := s * h; cap(p.Data) < n {
		p.Data = make([]int32, n)
	} else {
		p.Data = p.Data[:n]
	}
	p.W, p.H, p.Stride = w, h, s
	if f := fill.Load(); f != nil {
		for i := range p.Data {
			p.Data[i] = f.i
		}
	}
	return p
}

// PutPlane recycles a plane obtained from GetPlane (or any plane that
// owns its samples — the pool adopts its backing array). The caller
// must not retain any reference into p.Data. A view (Plane.View) owns
// nothing and never goes here.
func PutPlane(p *Plane) {
	if p != nil {
		planePool.Put(p)
	}
}

// GetFPlane is the float analogue of GetPlane.
func GetFPlane(w, h int) *FPlane {
	p, _ := fplanePool.Get().(*FPlane)
	if p == nil {
		p = NewFPlane(w, h)
	}
	s := padStride(w)
	if n := s * h; cap(p.Data) < n {
		p.Data = make([]float32, n)
	} else {
		p.Data = p.Data[:n]
	}
	p.W, p.H, p.Stride = w, h, s
	if f := fill.Load(); f != nil {
		for i := range p.Data {
			p.Data[i] = f.f
		}
	}
	return p
}

// PutFPlane recycles a float plane that owns its samples. The caller
// must not retain any reference into p.Data; views never go here.
func PutFPlane(p *FPlane) {
	if p != nil {
		fplanePool.Put(p)
	}
}
