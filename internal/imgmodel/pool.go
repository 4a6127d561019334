package imgmodel

import (
	"sync"
	"sync/atomic"
)

// Plane arenas for the encode and decode pipelines: transform planes
// are large (W×H words) and live only from the component transform
// until Tier-1 has consumed them (or from Tier-1 until the inverse
// MCT), so recycling them through sync.Pool makes steady-state
// allocations near-constant in the number of operations. Pooled planes
// are NOT zeroed — callers must overwrite every sample they later read
// (the pipeline stages do: MCT writes every row, and the subbands tile
// the plane). Use New when zeroed contents are required.

var (
	planePool  sync.Pool // *Plane
	fplanePool sync.Pool // *FPlane
	fill       atomic.Pointer[poolFill]
)

type poolFill struct {
	i int32
	f float32
}

// SetPoolFill makes every later Get fill its whole plane, stride
// padding included, with i (integer planes) or f (float planes), until
// ClearPoolFill. Tests use it to make the pools' contents
// deterministic: zero for a clean reference, sentinels (a NaN, say) to
// prove a stage writes every sample it later reads. Do not call it
// while a codec operation is in flight.
func SetPoolFill(i int32, f float32) { fill.Store(&poolFill{i, f}) }

// ClearPoolFill restores unspecified pooled-plane contents.
func ClearPoolFill() { fill.Store(nil) }

// poolOf returns the pool of T's planes and the test fill for them.
func poolOf[T Sample](f *poolFill) (pool *sync.Pool, v T) {
	switch q := any(&v).(type) {
	case *int32:
		pool = &planePool
		if f != nil {
			*q = f.i
		}
	case *float32:
		pool = &fplanePool
		if f != nil {
			*q = f.f
		}
	}
	return pool, v
}

// Get returns a w×h plane from the pool (or a fresh one), with
// unspecified contents inside and outside the live region.
func Get[T Sample](w, h int) *Samples[T] {
	f := fill.Load()
	pool, v := poolOf[T](f)
	p, _ := pool.Get().(*Samples[T])
	if p == nil {
		p = New[T](w, h)
	}
	s := PadStride(w)
	if n := s * h; cap(p.Data) < n {
		p.Data = make([]T, n)
	} else {
		p.Data = p.Data[:n]
	}
	p.W, p.H, p.Stride = w, h, s
	if f != nil {
		for i := range p.Data {
			p.Data[i] = v
		}
	}
	return p
}

// Put recycles a plane obtained from Get (or any plane that owns its
// samples — the pool adopts its backing array). The caller must not
// retain any reference into p.Data. A view (Samples.View) owns nothing
// and never goes here.
func Put[T Sample](p *Samples[T]) {
	if p != nil {
		pool, _ := poolOf[T](nil)
		pool.Put(p)
	}
}

// GetPlane is Get for integer planes.
func GetPlane(w, h int) *Plane { return Get[int32](w, h) }

// PutPlane is Put for integer planes.
func PutPlane(p *Plane) { Put(p) }

// PutFPlane is Put for float planes.
func PutFPlane(p *FPlane) { Put(p) }
