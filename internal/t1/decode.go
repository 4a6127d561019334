package t1

import (
	"fmt"
	"math/bits"

	"j2kcell/internal/dwt"
	"j2kcell/internal/mq"
)

// decoder mirrors the encoder pass for pass. It shares the column
// words and context LUTs with the encoder, so its context sequence is
// identical by construction; the column-skip fast paths fire exactly
// where the encoder emitted nothing (they are pure functions of the
// same column state), keeping the two in lockstep on the bitstream.
type decoder struct {
	*coder
	mq mq.Decoder
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
	d := &decoder{coder: c}

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

	// The plane and type of the last pass decoded.
	lastP, lastT := 0, PassCln
	for p := numBPS - 1; p >= 0 && pass < numPasses; p-- {
		lastP = p
		if p != numBPS-1 {
			if pass < numPasses {
				nextSeg()
				d.sigPass(p)
				pass++
				lastT = PassSig
			}
			if pass < numPasses {
				nextSeg()
				d.refPass(p)
				pass++
				lastT = PassRef
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
			lastT = PassCln
		}
	}

	// Midpoint reconstruction at each coefficient's reached precision,
	// with the sign from the χ bit of its column word. A significant
	// coefficient was last coded at the plane of the last pass, except
	// when that pass is a significance pass: then the coefficients it
	// did not visit (π clear) were last refined a plane above.
	for y := 0; y < h; y++ {
		j0, k := c.col(0, y)
		for x := 0; x < w; x++ {
			m := c.mag[y*w+x]
			if m == 0 {
				continue
			}
			win := c.state[j0+x] >> (3 * k)
			lp := lastP
			if lastT == PassSig && win&cwPi == 0 {
				lp++
			}
			if lp > 0 {
				m += 1 << uint(lp-1)
			}
			v := int32(m)
			if win&cwChi != 0 {
				v = -v
			}
			coef[y*stride+x] = v
		}
	}
	return nil
}

func (d *decoder) decodeBit(ctx int) int { return d.mq.Decode(&d.cx[ctx]) }

// decodeSignificance reads the sign of the sample at row k of column
// word j (magnitude index mi), newly significant at plane p, sets its
// magnitude bit, mirrors its significance into the neighboring words
// and returns the bits for word j. fv is word j as the pass holds it.
func (d *decoder) decodeSignificance(fv uint32, j int, k uint, mi, p int) uint32 {
	st := d.state
	sc := lutSC[scIndex(fv, st[j-1], st[j+1], k)]
	neg := uint32(d.mq.Decode(&d.cx[ctxSC+sc&7])) ^ uint32(sc>>3)
	d.mag[mi] |= 1 << uint(p)
	return d.setSig(j, k, neg)
}

func (d *decoder) sigPass(p int) {
	w, h := d.w, d.h
	st := d.state
	zc := &lutZC[d.zcTab]
	dec, cx := &d.mq, &d.cx
	for y0 := 0; y0 < h; y0 += 4 {
		rows := stripeRows(min(4, h-y0))
		j0, _ := d.col(0, y0)
		mi0 := y0 * w
		for x := 0; x < w; x++ {
			j := j0 + x
			fv := st[j]
			// The encoder's member set: rows with a non-zero context.
			members := sigMembers(fv, rows)
			if members == 0 {
				continue
			}
			for ; members != 0; members &= members - 1 {
				k3 := uint(bits.TrailingZeros32(members)) - 4 // 3k for row k
				fv |= cwPi << k3
				if dec.Decode(&cx[ctxZC+zc[fv>>k3&0x1FF]]) == 1 {
					fv |= d.decodeSignificance(fv, j, k3/3, mi0+x+int(k3/3)*w, p)
					members |= cwSelf << 3 << k3 & rows &^ fv // the row below
				}
			}
			st[j] = fv
		}
	}
}

func (d *decoder) refPass(p int) {
	w, h := d.w, d.h
	st, mag := d.state, d.mag
	dec, cx := &d.mq, &d.cx
	up := uint(p)
	for y0 := 0; y0 < h; y0 += 4 {
		j0, _ := d.col(0, y0)
		mi0 := y0 * w
		for x := 0; x < w; x++ {
			j := j0 + x
			fv := st[j]
			members := fv & cwSelfAll &^ (fv >> 17) // σ and not π
			if members == 0 {
				continue
			}
			mi := mi0 + x
			if members == cwSelfAll {
				// All four rows refine: the common case once a block is
				// dense, taken without the per-row tests.
				mag[mi] |= uint32(dec.Decode(&cx[mrCtx(fv)])) << up
				mag[mi+w] |= uint32(dec.Decode(&cx[mrCtx(fv>>3)])) << up
				mag[mi+2*w] |= uint32(dec.Decode(&cx[mrCtx(fv>>6)])) << up
				mag[mi+3*w] |= uint32(dec.Decode(&cx[mrCtx(fv>>9)])) << up
				st[j] = fv | cwMuAll
				continue
			}
			for ; members != 0; members &= members - 1 {
				k3 := uint(bits.TrailingZeros32(members)) - 4 // 3k for row k
				mag[mi+int(k3/3)*w] |= uint32(dec.Decode(&cx[mrCtx(fv>>k3)])) << up
				fv |= cwMu << k3
			}
			st[j] = fv
		}
	}
}

func (d *decoder) clnPass(p int) {
	w, h := d.w, d.h
	st := d.state
	zc := &lutZC[d.zcTab]
	dec, cx := &d.mq, &d.cx
	for y0 := 0; y0 < h; y0 += 4 {
		sh := min(4, h-y0)
		rows := stripeRows(sh)
		j0, _ := d.col(0, y0)
		mi0 := y0 * w
		for x := 0; x < w; x++ {
			j := j0 + x
			fv := st[j]
			members := rows &^ (fv | fv>>17) // σ and π clear
			if sh == 4 && fv&cwSigma == 0 {
				if dec.Decode(&cx[ctxRL]) == 0 {
					continue
				}
				k := uint(dec.Decode(&cx[ctxUNI])<<1 | dec.Decode(&cx[ctxUNI]))
				fv |= d.decodeSignificance(fv, j, k, mi0+x+int(k)*w, p)
				members &= ^uint32(0) << (3*k + 7)
			}
			for ; members != 0; members &= members - 1 {
				k3 := uint(bits.TrailingZeros32(members)) - 4 // 3k for row k
				if dec.Decode(&cx[ctxZC+zc[fv>>k3&0x1FF]]) == 1 {
					fv |= d.decodeSignificance(fv, j, k3/3, mi0+x+int(k3/3)*w, p)
				}
			}
			st[j] = fv &^ cwPiAll
		}
	}
}
