// Package t2 implements EBCOT Tier-2 (T.800 Annex B): tag trees,
// packet headers, and packet assembly. One packet carries one layer of
// one resolution of one component (whole-band precincts), ordered LRCP.
// Multiple quality layers are supported: first inclusion is coded
// through the inclusion tag tree against the layer index, later
// contributions with a single raw bit, and the per-block Lblock state
// persists across layers.
package t2

import (
	"fmt"
	"math/bits"
)

// Segment is one terminated codeword segment of a block's contribution:
// Passes coding passes whose bytes span Len.
type Segment struct {
	Passes, Len int
}

// BlockContrib is one code block's contribution to one packet (layer).
// NumPasses == 0 means the block contributes nothing in this layer.
type BlockContrib struct {
	NumPasses int
	ZeroBP    int       // missing MSB planes, signaled on first inclusion
	Segments  []Segment // ModeTermAll: one per pass; ModeSingle: one total
	Data      []byte    // encoder in, decoder out (slice of packet body)
}

// Precinct is the per-band coding state: the block grid with its
// inclusion and zero-bitplane tag trees, per-block Lblock registers,
// and inclusion state — all persistent across the layers of one encode
// or decode.
type Precinct struct {
	W, H   int
	Blocks []*BlockContrib // this layer's contributions (raster order)
	// FirstIncl must be set by the encoder before the first packet:
	// the layer at which each block first contributes (NeverIncluded
	// for blocks with no contribution in any layer). Decoders leave it
	// untouched.
	FirstIncl []int32
	// ZeroBPs must likewise be set by the encoder for every block that
	// is included in any layer: the missing-MSB count signaled at first
	// inclusion.
	ZeroBPs []int32

	incl     *TagTree
	zbp      *TagTree
	lblock   []int32
	included []bool
	prepared bool
}

// NeverIncluded marks a block that appears in no layer.
const NeverIncluded = int32(1) << 28

// NewPrecinct creates the coding state for a w×h grid of blocks.
// w or h may be zero for empty bands.
func NewPrecinct(w, h int) *Precinct {
	p := &Precinct{W: w, H: h}
	if w > 0 && h > 0 {
		p.Blocks = make([]*BlockContrib, w*h)
		p.FirstIncl = make([]int32, w*h)
		p.ZeroBPs = make([]int32, w*h)
		for i := range p.FirstIncl {
			p.FirstIncl[i] = NeverIncluded
		}
		p.incl = NewTagTree(w, h)
		p.zbp = NewTagTree(w, h)
		p.lblock = make([]int32, w*h)
		p.included = make([]bool, w*h)
		for i := range p.lblock {
			p.lblock[i] = 3
		}
	}
	return p
}

const tagUnknown = 1 << 29

// prepareEncode loads the tag trees once, before the first layer.
func (p *Precinct) prepareEncode() {
	if p.incl == nil || p.prepared {
		return
	}
	p.prepared = true
	p.incl.Reset(0)
	p.zbp.Reset(0)
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			i := y*p.W + x
			p.incl.SetValue(x, y, p.FirstIncl[i])
			if p.FirstIncl[i] != NeverIncluded {
				p.zbp.SetValue(x, y, p.ZeroBPs[i])
			} else {
				p.zbp.SetValue(x, y, tagUnknown)
			}
		}
	}
	p.incl.Finish()
	p.zbp.Finish()
}

func (p *Precinct) prepareDecode() {
	if p.incl == nil || p.prepared {
		return
	}
	p.prepared = true
	p.incl.Reset(tagUnknown)
	p.zbp.Reset(tagUnknown)
}

// floorLog2 returns floor(log2(n)) for n >= 1, and 0 for n <= 1.
func floorLog2(n int) int { return bits.Len(uint(max(n, 1))) - 1 }

// bitLen returns the bit length of v, and 0 for v <= 0.
func bitLen(v int) int { return bits.Len(uint(max(v, 0))) }

// writeNumPasses emits the Table B.4 variable-length code (1..164).
func writeNumPasses(w *BitWriter, n int) {
	switch {
	case n == 1:
		w.WriteBit(0)
	case n == 2:
		w.WriteBits(0b10, 2)
	case n <= 5:
		w.WriteBits(0b11, 2)
		w.WriteBits(uint32(n-3), 2)
	case n <= 36:
		w.WriteBits(0b11, 2)
		w.WriteBits(3, 2)
		w.WriteBits(uint32(n-6), 5)
	case n <= 164:
		w.WriteBits(0b11, 2)
		w.WriteBits(3, 2)
		w.WriteBits(31, 5)
		w.WriteBits(uint32(n-37), 7)
	default:
		// invariant: encode-side only — Tier-1 produces at most 3*NumBPS-2
		// passes and NumBPS <= 56 is bounded by 32-bit coefficients, well
		// under the 164-pass ceiling of the packet-header code.
		panic(fmt.Sprintf("t2: %d passes exceed the 164 the header can code", n))
	}
}

func readNumPasses(r *BitReader) (int, error) {
	b, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	if b == 0 {
		return 1, nil
	}
	if b, err = r.ReadBit(); err != nil {
		return 0, err
	}
	if b == 0 {
		return 2, nil
	}
	v, err := r.ReadBits(2)
	if err != nil {
		return 0, err
	}
	if v < 3 {
		return 3 + int(v), nil
	}
	if v, err = r.ReadBits(5); err != nil {
		return 0, err
	}
	if v < 31 {
		return 6 + int(v), nil
	}
	if v, err = r.ReadBits(7); err != nil {
		return 0, err
	}
	return 37 + int(v), nil
}

// writeLengths emits the Lblock commas and segment lengths.
func writeLengths(w *BitWriter, lb *int32, segs []Segment) {
	for {
		ok := true
		for _, s := range segs {
			if bitLen(s.Len) > int(*lb)+floorLog2(s.Passes) {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		w.WriteBit(1)
		*lb++
	}
	w.WriteBit(0)
	for _, s := range segs {
		w.WriteBits(uint32(s.Len), int(*lb)+floorLog2(s.Passes))
	}
}

// EncodePacket writes the packet for one resolution at the given layer:
// the header coding every band's block grid, then the concatenated
// block bodies. Precinct state (tag trees, Lblock, inclusion) persists
// across calls with increasing layer.
func EncodePacket(precincts []*Precinct, layer int) []byte {
	return EncodePacketEPH(precincts, layer, false)
}

// EncodePacketEPH is EncodePacket with an optional EPH (end of packet
// header, FF92) marker between the header and the body — the
// error-resilience aid that lets a decoder confirm the header/body
// boundary.
func EncodePacketEPH(precincts []*Precinct, layer int, eph bool) []byte {
	var w BitWriter
	nonEmpty := false
	for _, p := range precincts {
		for _, b := range p.Blocks {
			if b != nil && b.NumPasses > 0 {
				nonEmpty = true
			}
		}
	}
	if !nonEmpty {
		w.WriteBit(0)
		w.Align()
		out := w.Bytes()
		if eph {
			out = append(out, 0xFF, 0x92)
		}
		return out
	}
	w.WriteBit(1)
	for _, p := range precincts {
		p.prepareEncode()
		for y := 0; y < p.H; y++ {
			for x := 0; x < p.W; x++ {
				i := y*p.W + x
				b := p.Blocks[i]
				contributes := b != nil && b.NumPasses > 0
				if p.included[i] {
					// Previously included: one raw bit.
					bit := 0
					if contributes {
						bit = 1
					}
					w.WriteBit(bit)
				} else {
					p.incl.Encode(&w, x, y, int32(layer)+1)
					if !contributes {
						continue
					}
					// First inclusion: signal missing bit planes.
					p.zbp.Encode(&w, x, y, p.ZeroBPs[i]+1)
					p.included[i] = true
				}
				if !contributes {
					continue
				}
				writeNumPasses(&w, b.NumPasses)
				writeLengths(&w, &p.lblock[i], b.Segments)
			}
		}
	}
	w.Align()
	out := w.Bytes()
	if eph {
		out = append(out, 0xFF, 0x92)
	}
	for _, p := range precincts {
		for _, b := range p.Blocks {
			if b != nil && b.NumPasses > 0 {
				out = append(out, b.Data...)
			}
		}
	}
	return out
}

// SegStyle tells the decoder how passes map to terminated segments.
type SegStyle int

// Segment styles (mirror t1.Mode).
const (
	SegSingle  SegStyle = iota // one segment holding all passes
	SegTermAll                 // one segment per pass
)

// DecodePacket parses one packet at the given layer from data, filling
// each precinct's block contributions for this layer (NumPasses,
// ZeroBP, Segments, Data sub-slices). It returns the bytes consumed.
// Precinct state must persist across layers.
func DecodePacket(data []byte, precincts []*Precinct, layer int, style SegStyle) (int, error) {
	return DecodePacketEPH(data, precincts, layer, style, false)
}

// DecodePacketEPH is DecodePacket for streams carrying EPH markers: the
// FF92 after the header is verified and consumed, catching header
// corruption before any body bytes are attributed.
func DecodePacketEPH(data []byte, precincts []*Precinct, layer int, style SegStyle, eph bool) (int, error) {
	r := NewBitReader(data)
	ne, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	if ne == 0 {
		// An empty packet still defines this layer's contributions:
		// none. Clear any contribution state left from the previous
		// layer, or a caller iterating Blocks after each packet would
		// double-count the stale entries.
		for _, p := range precincts {
			for _, b := range p.Blocks {
				if b != nil {
					b.NumPasses = 0
					b.Segments = b.Segments[:0]
					b.Data = nil
				}
			}
		}
		r.Align()
		n := r.Pos()
		if eph {
			if n+2 > len(data) || data[n] != 0xFF || data[n+1] != 0x92 {
				return 0, fmt.Errorf("t2: missing EPH after empty packet header")
			}
			n += 2
		}
		return n, nil
	}
	var order []*BlockContrib
	for _, p := range precincts {
		p.prepareDecode()
		for y := 0; y < p.H; y++ {
			for x := 0; x < p.W; x++ {
				i := y*p.W + x
				b := p.Blocks[i]
				if b == nil {
					b = &BlockContrib{}
					p.Blocks[i] = b
				}
				b.NumPasses = 0
				b.Segments = b.Segments[:0]
				b.Data = nil
				if p.included[i] {
					bit, err := r.ReadBit()
					if err != nil {
						return 0, err
					}
					if bit == 0 {
						continue
					}
				} else {
					incl, err := p.incl.Decode(r, x, y, int32(layer)+1)
					if err != nil {
						return 0, err
					}
					if !incl {
						continue
					}
					zbp, err := p.zbp.DecodeValue(r, x, y)
					if err != nil {
						return 0, err
					}
					b.ZeroBP = int(zbp)
					p.included[i] = true
				}
				if b.NumPasses, err = readNumPasses(r); err != nil {
					return 0, err
				}
				lb := &p.lblock[i]
				for {
					bit, err := r.ReadBit()
					if err != nil {
						return 0, err
					}
					if bit == 0 {
						break
					}
					*lb++
				}
				segs := []Segment{{Passes: b.NumPasses}}
				if style == SegTermAll {
					segs = segs[:0]
					for j := 0; j < b.NumPasses; j++ {
						segs = append(segs, Segment{Passes: 1})
					}
				}
				for j := range segs {
					v, err := r.ReadBits(int(*lb) + floorLog2(segs[j].Passes))
					if err != nil {
						return 0, err
					}
					segs[j].Len = int(v)
				}
				b.Segments = segs
				order = append(order, b)
			}
		}
	}
	r.Align()
	off := r.Pos()
	if eph {
		if off+2 > len(data) || data[off] != 0xFF || data[off+1] != 0x92 {
			return 0, fmt.Errorf("t2: missing EPH after packet header")
		}
		off += 2
	}
	for _, b := range order {
		n := 0
		for _, s := range b.Segments {
			n += s.Len
		}
		if off+n > len(data) {
			return 0, fmt.Errorf("t2: packet body truncated: need %d bytes at %d of %d", n, off, len(data))
		}
		b.Data = data[off : off+n]
		off += n
	}
	return off, nil
}
