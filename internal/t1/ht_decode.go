package t1

import (
	"fmt"
	"math/bits"
)

// htDecoder holds the pooled scratch of one HT block decode: the quad
// significance history, the sample magnitudes (written only where a
// sample is significant, never cleared), and per-row bit sets of 64
// samples to a word — significance after cleanup, SigProp arrivals,
// and signs — plus SigProp's working row.
//
// The per-bit decoder this replaces is kept in ht_oracle_test.go; the
// tests there require identical coefficients and identical rejection.
type htDecoder struct {
	prevRho []uint8
	mag     []uint32
	sig     []uint64
	arr     []uint64
	neg     []uint64
	near    []uint64
}

// decodeHT reconstructs a block coded by encodeHT. Segment boundaries
// come from segLens (HT blocks always travel with per-pass segment
// lengths, like TERMALL MQ blocks); the cleanup segment carries its
// own MEL/VLC stream lengths and cleanup plane in the trailer, so the
// decode is self-describing for any truncated pass prefix (cleanup
// only, cleanup+SigProp, or all three). Structural damage — stream
// lengths exceeding the segment, significance bits addressing samples
// outside the block, implausible magnitude exponents, MEL/VLC
// disagreement — returns an error and leaves the block zero; bit-level
// damage degrades into wrong coefficients, never a panic.
func decodeHT(coef []int32, w, h, stride, numBPS, numPasses int, data []byte, segLens []int) error {
	if numBPS == 0 || numPasses == 0 {
		clearBlock(coef, w, h, stride)
		return nil
	}
	d := getHTDecoder()
	defer putHTDecoder(d)
	if err := d.decode(w, h, numBPS, numPasses, data, segLens); err != nil {
		clearBlock(coef, w, h, stride)
		return err
	}
	d.reconstruct(coef, w, h, stride)
	return nil
}

func clearBlock(coef []int32, w, h, stride int) {
	for y := 0; y < h; y++ {
		clear(coef[y*stride : y*stride+w])
	}
}

// decode runs the coded passes into the magnitudes and bit sets.
func (d *htDecoder) decode(w, h, numBPS, numPasses int, data []byte, segLens []int) error {
	if numPasses > 3 {
		return fmt.Errorf("t1: HT block declares %d passes, max 3", numPasses)
	}
	if len(segLens) < numPasses {
		return fmt.Errorf("t1: %d passes but only %d segment lengths", numPasses, len(segLens))
	}
	var segs [3][]byte
	off := 0
	for i := 0; i < numPasses; i++ {
		n := segLens[i]
		if n < 0 {
			n = 0
		}
		if off+n > len(data) {
			n = len(data) - off
		}
		segs[i] = data[off : off+n]
		off += n
	}

	cup := segs[0]
	if len(cup) < htTrailerLen {
		return fmt.Errorf("t1: HT cleanup segment too short (%d bytes)", len(cup))
	}
	tr := cup[len(cup)-htTrailerLen:]
	lenMEL := int(tr[0]) | int(tr[1])<<8 | int(tr[2])<<16
	lenVLC := int(tr[3]) | int(tr[4])<<8 | int(tr[5])<<16
	pCup := int(tr[6])
	if pCup > 1 {
		return fmt.Errorf("t1: HT cleanup plane %d out of range", pCup)
	}
	body := len(cup) - htTrailerLen
	if lenMEL+lenVLC > body {
		return fmt.Errorf("t1: HT stream lengths %d+%d exceed cleanup body %d", lenMEL, lenVLC, body)
	}

	nw := (w + 63) >> 6
	d.sig = zeroed(d.sig, h*nw)
	d.arr = zeroed(d.arr, h*nw)
	d.neg = zeroed(d.neg, h*nw)
	if cap(d.mag) < w*h {
		d.mag = make([]uint32, w*h)
	}
	d.mag = d.mag[:w*h]
	// Without MagRef, a plane-1 cleanup sample reconstructs at the
	// midpoint of its last plane: its dropped LSB reads as 1.
	mid := uint32(0)
	if pCup == 1 && numPasses < 3 {
		mid = 1
	}
	if err := d.cleanup(cup[:body], lenMEL, lenVLC, w, h, numBPS, pCup, mid); err != nil {
		return err
	}
	if numPasses >= 2 {
		if pCup != 1 {
			return fmt.Errorf("t1: HT refinement passes after a plane-0 cleanup")
		}
		var r htReader
		r.init(segs[1])
		d.sigProp(&r, w, h)
		if r.overrun() {
			return fmt.Errorf("t1: HT SigProp segment shorter than its membership requires")
		}
	}
	if numPasses >= 3 {
		var r htReader
		r.init(segs[2])
		d.magRef(&r, w, h)
		if r.overrun() {
			return fmt.Errorf("t1: HT MagRef segment shorter than its membership requires")
		}
	}
	return nil
}

// cleanup mirrors the encoder's quad scan over the cleanup body (MagSgn,
// MEL and VLC streams back to back). The encoder's batched all-quiet
// fast path emits byte-identical MEL events to the per-quad path, so
// one loop decodes both. Each significant sample's sign and magnitude
// come from one MagSgn field of U_q+1 bits — exact because packing is
// LSB-first — and land in mag and the sig/neg bit sets.
func (d *htDecoder) cleanup(body []byte, lenMEL, lenVLC, w, h, numBPS, pCup int, mid uint32) error {
	var mel melDecoder
	var ms, vlc htReader
	n := len(body)
	ms.init(body[:n-lenMEL-lenVLC])
	mel.init(body[n-lenMEL-lenVLC : n-lenVLC])
	vlc.init(body[n-lenVLC:])

	nqx := (w + 1) / 2
	nqy := (h + 1) / 2
	nw := (w + 63) >> 6
	d.prevRho = zeroed(d.prevRho, nqx)
	prevRho, mag, sig, neg := d.prevRho, d.mag, d.sig, d.neg
	up := uint(pCup)
	maxU := min(numBPS-pCup, 31-pCup)
	// Magnitude offsets of quad sample i from its top-left:
	// column-major, bit0 (x0,y0), bit1 (x0,y0+1), bit2 (x0+1,y0),
	// bit3 (x0+1,y0+1).
	mOff := [4]int{0, w, 1, w + 1}
	for qy := 0; qy < nqy; qy++ {
		y0 := qy * 2
		tall := y0+1 < h
		left := uint8(0)
		for qx := 0; qx < nqx; qx++ {
			x0 := qx * 2
			var rho uint32
			if left|prevRho[qx] == 0 { // AZC quad
				if mel.runs > 0 { // a pending zero event, without the call
					mel.runs--
					prevRho[qx] = 0
					left = 0
					continue
				}
				if mel.decode() == 0 {
					prevRho[qx] = 0
					left = 0
					continue
				}
				rho = vlc.get(4)
				if rho == 0 {
					return fmt.Errorf("t1: HT MEL/VLC disagree on quad significance")
				}
			} else {
				rho = vlc.get(4)
			}
			prevRho[qx] = uint8(rho)
			left = uint8(rho)
			if rho == 0 {
				continue
			}
			if (!tall && rho&0xA != 0) || (x0+1 >= w && rho&0xC != 0) {
				return fmt.Errorf("t1: HT significance pattern addresses samples outside the block")
			}
			u := getUExp(&vlc) + 1 // U_q
			if u > maxU {
				return fmt.Errorf("t1: HT magnitude exponent %d exceeds %d coded planes", u, maxU)
			}
			nb := uint(u) + 1
			mi := y0*w + x0
			var negQ uint32 // sign bits at their ρ positions
			for r := rho; r != 0; r &= r - 1 {
				i := bits.TrailingZeros32(r)
				f := ms.get(nb)
				mag[mi+mOff[i]] = (f>>1+1)<<up | mid
				negQ |= (f & 1) << i
			}
			// Top row: x0 from bit 0, x0+1 from bit 2; bottom row: bits 1
			// and 3. x0 is even, so both columns share one word.
			wi, b := y0*nw+x0>>6, uint(x0&63)
			sig[wi] |= uint64(rho&1|rho>>1&2) << b
			neg[wi] |= uint64(negQ&1|negQ>>1&2) << b
			if tall {
				sig[wi+nw] |= uint64(rho>>1&1|rho>>2&2) << b
				neg[wi+nw] |= uint64(negQ>>1&1|negQ>>2&2) << b
			}
		}
	}
	// Trailer consistency: an intact cleanup segment's declared stream
	// lengths cover every bit the quad scan just consumed, so any
	// overrun means the trailer lies about the segment layout.
	if ms.overrun() || mel.r.overrun() || vlc.overrun() {
		return fmt.Errorf("t1: HT cleanup streams shorter than the coding process requires")
	}
	return nil
}

// sigProp decodes the plane-0 SigProp pass: a raw bit for every
// still-insignificant sample with a significant neighbour, plus a sign
// when it fires, in raster order. A row's members start as the
// horizontal dilation of the significant samples in the rows around it
// and the arrivals in the row above; the walk then visits member bits
// in order, and each arrival makes its right neighbour a member (if
// insignificant) and, through arr, feeds the row below.
func (d *htDecoder) sigProp(r *htReader, w, h int) {
	nw := (w + 63) >> 6
	valid := ^uint64(0) >> ((64 - w&63) & 63) // in-block bits of a row's last word
	d.near = zeroed(d.near, nw)
	sig, arr, neg, mag, near := d.sig, d.arr, d.neg, d.mag, d.near
	for y := 0; y < h; y++ {
		s := sig[y*nw : (y+1)*nw]
		for i := range near {
			v := s[i]
			if y > 0 {
				v |= sig[(y-1)*nw+i] | arr[(y-1)*nw+i]
			}
			if y+1 < h {
				v |= sig[(y+1)*nw+i]
			}
			near[i] = v
		}
		carry, nLo := uint64(0), uint64(0) // arrival at bit 63, near bit 63 of the word before
		for i, v := range near {
			nHi := uint64(0)
			if i+1 < nw {
				nHi = near[i+1] << 63
			}
			in := ^s[i] // insignificant in-block samples
			if i == nw-1 {
				in &= valid
			}
			t := (v | v<<1 | nLo | v>>1 | nHi | carry) & in
			carry, nLo = 0, v>>63
			var a, ng uint64
			for t != 0 {
				b := uint(bits.TrailingZeros64(t))
				t &= t - 1
				if r.get(1) == 0 {
					continue
				}
				a |= 1 << b
				ng |= uint64(r.get(1)) << b
				mag[y*w+i<<6+int(b)] = 1
				if b < 63 {
					t |= (1 << (b + 1)) & in
				} else {
					carry = 1
				}
			}
			arr[y*nw+i] = a
			neg[y*nw+i] |= ng
		}
	}
}

// magRef decodes the plane-0 MagRef pass: a raw LSB for every sample
// significant after cleanup, in raster order — read up to 32 members'
// bits at a time from the significance words.
func (d *htDecoder) magRef(r *htReader, w, h int) {
	nw := (w + 63) >> 6
	mag := d.mag
	for y := 0; y < h; y++ {
		for i, mw := range d.sig[y*nw : (y+1)*nw] {
			base := y*w + i<<6
			for mw != 0 {
				k := min(bits.OnesCount64(mw), 32)
				v := r.get(uint(k))
				for ; k > 0; k-- {
					mag[base+bits.TrailingZeros64(mw)] |= v & 1
					mw &= mw - 1
					v >>= 1
				}
			}
		}
	}
}

// reconstruct writes every sample of the block exactly once: the
// significant ones (cleanup or SigProp) as their signed magnitude, the
// runs of insignificant ones between them — across word boundaries —
// as zero.
func (d *htDecoder) reconstruct(coef []int32, w, h, stride int) {
	nw := (w + 63) >> 6
	for y := 0; y < h; y++ {
		out := coef[y*stride : y*stride+w]
		mrow := d.mag[y*w : y*w+w]
		x := 0
		for i := 0; i < nw; i++ {
			ng := d.neg[y*nw+i]
			for s := d.sig[y*nw+i] | d.arr[y*nw+i]; s != 0; s &= s - 1 {
				b := bits.TrailingZeros64(s)
				xb := i<<6 + b
				clear(out[x:xb])
				n := uint32(ng>>b) & 1
				out[xb] = int32((mrow[xb] ^ -n) + n)
				x = xb + 1
			}
		}
		clear(out[x:])
	}
}
