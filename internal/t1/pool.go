package t1

import "sync"

// Scratch arenas for Tier-1. A 64×64 block costs ~34 KB of coder
// scratch (bordered flag words + magnitudes), ~1 KB of stripe OR masks,
// and the MQ encoder's segment buffer; a 3072×3072×3 encode codes ~7k
// blocks, so recycling this state through sync.Pool keeps steady-state
// Tier-1 allocations limited to the returned Block itself. Pools are
// safe for the concurrent block workers of the parallel encode/decode
// pipelines.

var (
	coderPool     sync.Pool // *coder
	encoderPool   sync.Pool // *encoder
	htEncoderPool sync.Pool // *htEncoder
	htDecoderPool sync.Pool // *htDecoder
	int8Pool      sync.Pool // *[]int8 (decoder lastPlane scratch)
)

// release returns the coder's scratch to the pool.
func (c *coder) release() { coderPool.Put(c) }

// getEncoder returns a pooled encoder shell, retaining the MQ segment
// buffer capacity across blocks. The caller fills coder/mode/gain2.
func getEncoder() *encoder {
	e, _ := encoderPool.Get().(*encoder)
	if e == nil {
		e = &encoder{}
	}
	return e
}

// putEncoder recycles an encoder after detaching the coder, which the
// coder pool owns separately. The segment staging buffer stays: each
// block's Data is a copy of it.
func putEncoder(e *encoder) {
	e.coder = nil
	encoderPool.Put(e)
}

// getHTEncoder returns a pooled HT encoder shell, retaining the three
// stream buffers and quad-history capacity across blocks.
func getHTEncoder() *htEncoder {
	e, _ := htEncoderPool.Get().(*htEncoder)
	if e == nil {
		e = &htEncoder{}
	}
	return e
}

func putHTEncoder(e *htEncoder) { htEncoderPool.Put(e) }

// getHTDecoder returns a pooled HT decoder, retaining its magnitude and
// bit-set capacity across blocks.
func getHTDecoder() *htDecoder {
	d, _ := htDecoderPool.Get().(*htDecoder)
	if d == nil {
		d = &htDecoder{}
	}
	return d
}

func putHTDecoder(d *htDecoder) { htDecoderPool.Put(d) }

// getInt8 returns a zeroed length-n int8 scratch slice.
func getInt8(n int) *[]int8 {
	p, _ := int8Pool.Get().(*[]int8)
	if p == nil {
		s := make([]int8, n)
		return &s
	}
	if cap(*p) < n {
		*p = make([]int8, n)
		return p
	}
	*p = (*p)[:n]
	clear(*p)
	return p
}

func putInt8(p *[]int8) { int8Pool.Put(p) }
