package t1

import (
	"fmt"

	"j2kcell/internal/dwt"
	"j2kcell/internal/mq"
)

// decoder mirrors the encoder pass for pass. It shares the flag-word
// scheme and context LUTs with the encoder, so its context sequence is
// identical by construction; the column-skip fast paths fire exactly
// where the encoder emitted nothing (they are pure functions of the
// same flag state), keeping the two in lockstep on the bitstream.
type decoder struct {
	*coder
	mq        mq.Decoder
	lastPlane []int8 // lowest plane at which each coefficient was coded
}

// Decode reconstructs a w×h code block from its Tier-1 bitstream into
// coef (row stride given). numBPS and numPasses come from the Tier-2
// packet headers; segLens gives the per-pass segment lengths for
// ModeTermAll blocks (ignored for ModeSingle). Decoding a truncated
// pass set yields the standard midpoint reconstruction of whatever
// precision each coefficient reached.
func Decode(coef []int32, w, h, stride int, orient dwt.Orient, mode Mode, numBPS, numPasses int, data []byte, segLens []int) error {
	if mode.IsHT() {
		return decodeHT(coef, w, h, stride, numBPS, numPasses, data, segLens)
	}
	clearBlock(coef, w, h, stride)
	if numBPS == 0 || numPasses == 0 {
		return nil
	}
	c := newCoder(w, h, orient)
	defer c.release()
	lp := getInt8(w * h)
	defer putInt8(lp)
	d := &decoder{coder: c, lastPlane: *lp}

	if mode.Base() == ModeTermAll && len(segLens) < numPasses {
		return fmt.Errorf("t1: %d passes but only %d segment lengths", numPasses, len(segLens))
	}
	if mode.Base() == ModeSingle {
		d.mq.Reset(data)
	}

	pass, off := 0, 0
	nextSeg := func() {
		if mode.Base() != ModeTermAll {
			return
		}
		n := segLens[pass]
		if off+n > len(data) {
			n = len(data) - off
		}
		d.mq.Reset(data[off : off+n])
		off += n
	}

	for p := numBPS - 1; p >= 0 && pass < numPasses; p-- {
		if p != numBPS-1 {
			if pass < numPasses {
				nextSeg()
				d.sigPass(p)
				pass++
			}
			if pass < numPasses {
				nextSeg()
				d.refPass(p)
				pass++
			}
		}
		if pass < numPasses {
			nextSeg()
			d.clnPass(p)
			if mode.SegSym() {
				// The encoder closed this cleanup pass with the 1010
				// sentinel in the UNIFORM context; anything else means the
				// MQ decoder lost sync inside a damaged segment.
				got := d.decodeBit(ctxUNI)<<3 | d.decodeBit(ctxUNI)<<2 |
					d.decodeBit(ctxUNI)<<1 | d.decodeBit(ctxUNI)
				if got != 0b1010 {
					return fmt.Errorf("t1: segmentation symbol mismatch at plane %d: got %04b", p, got)
				}
			}
			pass++
		}
	}

	// Midpoint reconstruction at each coefficient's reached precision.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			m := c.mag[i]
			if m == 0 {
				continue
			}
			if lp := d.lastPlane[i]; lp > 0 {
				m += 1 << uint(lp-1)
			}
			v := int32(m)
			if c.flags[c.fidx(x, y)]&fwNeg != 0 {
				v = -v
			}
			coef[y*stride+x] = v
		}
	}
	return nil
}

func (d *decoder) decodeBit(ctx int) int { return d.mq.Decode(&d.cx[ctx]) }

// decodeSignificance reads the sign of a newly significant coefficient,
// propagates its significance into the neighbor flag words, and sets
// its magnitude bit.
func (d *decoder) decodeSignificance(fi, mi, p int) {
	fv := d.flags[fi]
	sc := lutSC[scIndex(fv)]
	bit := d.decodeBit(ctxSC + int(sc&7))
	neg := uint8(bit)^(sc>>3) == 1
	if neg {
		d.flags[fi] |= fwNeg
	}
	d.setSig(fi, neg)
	d.mag[mi] |= 1 << uint(p)
	d.lastPlane[mi] = int8(p)
}

func (d *decoder) sigPass(p int) {
	w, h, fw := d.w, d.h, d.fw
	f := d.flags
	zc := &lutZC[d.zcTab]
	vp := visitStamp(p)
	for y0 := 0; y0 < h; y0 += 4 {
		sh := h - y0
		if sh > 4 {
			sh = 4
		}
		fi0 := (y0+1)*fw + 1
		mi0 := y0 * w
		for x := 0; x < w; x++ {
			fi := fi0 + x
			or, and := f[fi], f[fi]
			for k := 1; k < sh; k++ {
				v := f[fi+k*fw]
				or |= v
				and &= v
			}
			// Mirrors the encoder: no significant neighbor anywhere or
			// every coefficient already significant ⇒ nothing was coded.
			if or&fwSigNbr == 0 || and&fwSig != 0 {
				continue
			}
			mi := mi0 + x
			for k := 0; k < sh; k++ {
				fv := f[fi]
				if fv&fwSig == 0 {
					if c := zc[fv>>4&0xFF]; c != 0 {
						if d.decodeBit(ctxZC+int(c)) == 1 {
							d.decodeSignificance(fi, mi, p)
						}
						f[fi] = f[fi]&^fwVisitMask | vp
					}
				}
				fi += fw
				mi += w
			}
		}
	}
}

func (d *decoder) refPass(p int) {
	w, h, fw := d.w, d.h, d.fw
	f := d.flags
	vp := visitStamp(p)
	up := uint(p)
	for y0 := 0; y0 < h; y0 += 4 {
		sh := h - y0
		if sh > 4 {
			sh = 4
		}
		fi0 := (y0+1)*fw + 1
		mi0 := y0 * w
		for x := 0; x < w; x++ {
			fi := fi0 + x
			or := f[fi]
			for k := 1; k < sh; k++ {
				or |= f[fi+k*fw]
			}
			if or&fwSig == 0 {
				continue // nothing significant in the column
			}
			mi := mi0 + x
			for k := 0; k < sh; k++ {
				fv := f[fi]
				if fv&fwSig != 0 && fv&fwVisitMask != vp {
					bit := d.decodeBit(mrCtx(fv))
					d.mag[mi] |= uint32(bit) << up
					d.lastPlane[mi] = int8(p)
					f[fi] |= fwRefined
				}
				fi += fw
				mi += w
			}
		}
	}
}

func (d *decoder) clnPass(p int) {
	w, h, fw := d.w, d.h, d.fw
	f := d.flags
	zc := &lutZC[d.zcTab]
	vp := visitStamp(p)
	for y0 := 0; y0 < h; y0 += 4 {
		sh := h - y0
		if sh > 4 {
			sh = 4
		}
		fi0 := (y0+1)*fw + 1
		mi0 := y0 * w
		for x := 0; x < w; x++ {
			fi := fi0 + x
			mi := mi0 + x
			start := 0
			if sh == 4 {
				f0, f1, f2, f3 := f[fi], f[fi+fw], f[fi+2*fw], f[fi+3*fw]
				if f0&f1&f2&f3&fwSig != 0 {
					continue // all four significant: encoder coded nothing
				}
				or := f0 | f1 | f2 | f3
				if or&(fwSig|fwSigNbr) == 0 {
					if d.decodeBit(ctxRL) == 0 {
						continue
					}
					runLen := d.decodeBit(ctxUNI)<<1 | d.decodeBit(ctxUNI)
					fi += runLen * fw
					mi += runLen * w
					d.decodeSignificance(fi, mi, p)
					fi += fw
					mi += w
					start = runLen + 1
				}
			}
			for k := start; k < sh; k++ {
				fv := f[fi]
				if fv&fwSig == 0 && fv&fwVisitMask != vp {
					if d.decodeBit(ctxZC+int(zc[fv>>4&0xFF])) == 1 {
						d.decodeSignificance(fi, mi, p)
					}
				}
				fi += fw
				mi += w
			}
		}
	}
}
