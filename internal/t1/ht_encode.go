package t1

import (
	"math/bits"
	"slices"

	"j2kcell/internal/dwt"
	"j2kcell/internal/simd"
)

// htTrailerLen is the cleanup segment's fixed suffix: the MEL and VLC
// stream lengths (3 bytes each, little-endian) and the cleanup plane.
// The published layout signals the suffix split with Scup and stores
// the VLC stream reversed; the explicit-length trailer is this
// implementation's documented deviation (DESIGN.md) — it keeps the
// segment self-describing through the same []byte + segment-length
// interface the MQ coder uses.
const htTrailerLen = 7

// htEncoder holds the pooled scratch of one HT block encode: the three
// cleanup byte streams, the MEL state, the packer reused by the two
// raw-bit refinement passes, the block's bit sets at the cleanup plane
// and the passes' per-row working sets.
//
// The per-bit encoder these emitters replace is kept in
// ht_oracle_test.go; the tests there require identical blocks.
type htEncoder struct {
	magsgn htWriter
	vlc    htWriter
	mel    melEncoder
	refine htWriter // SigProp / MagRef segments, one at a time
	nz     []uint64 // significant at the cleanup plane, per row
	bit    []uint64 // the bit of the plane below the cleanup plane, per row
	rows   []uint64 // the cleanup's quad masks, SigProp's working sets
}

// encodeHT runs the HTJ2K (Part 15) FBCOT coder on one block. In
// ModeHT everything is coded by a single cleanup pass at plane 0 — an
// exact representation of the quantized coefficients, so a reversible
// upstream chain stays lossless. In ModeHTRefine (rate-constrained
// encodes) the cleanup pass runs at plane 1 and HT SigProp + MagRef
// raw-bit passes finish plane 0, giving PCRD three truncation points
// per block. Shares the pooled coder scratch, the simd load kernels,
// and the Block/Pass contract with the MQ encoder.
//
// All three passes read one pair of bit sets, 64 samples to a word,
// built once per block by simd.PlaneMaskRow at the cleanup plane: nz
// (significant after the cleanup) and bit (the plane below it, which
// the refinement passes code).
func encodeHT(coef []int32, w, h, stride int, orient dwt.Orient, mode Mode, gain float64) *Block {
	// invariant: block geometry comes from PlanBlocks, which never emits
	// empty blocks; encode-side only (decode sizes are clamped to the band).
	if w <= 0 || h <= 0 {
		panic("t1: empty code block")
	}
	c := newCoder(w, h, orient)
	defer c.release()
	e := getHTEncoder()
	defer putHTEncoder(e)

	// Same load traversal as the MQ encoder: magnitudes plus a running
	// OR from the simd row kernels (bits.Len32(OR) == bits.Len32(max)),
	// and sign flags. A ModeHT cleanup reconstructs every sample exactly,
	// so its distortion reduction is the block's weighted energy, summed
	// here in raster order.
	gain2 := gain * gain
	orAll := uint32(0)
	energy := 0.0
	for y := 0; y < h; y++ {
		coefRow := coef[y*stride : y*stride+w]
		magRow := c.mag[y*w : y*w+w]
		orAll |= simd.AbsOrRow(magRow, coefRow)
		simd.SignOrRow(c.flags[c.fidx(0, y):c.fidx(0, y)+w], coefRow, fwNeg)
		if mode == ModeHT {
			for _, m := range magRow {
				energy += float64(float64(m) * float64(m) * gain2)
			}
		}
	}
	numBPS := bits.Len32(orAll)
	blk := &Block{W: w, H: h, Orient: orient, NumBPS: numBPS, Mode: mode}
	if numBPS == 0 {
		return blk
	}

	pCup := 0
	if mode == ModeHTRefine && numBPS >= 2 {
		pCup = 1
	}
	blk.Passes = make([]Pass, 0, 1+2*pCup) // cleanup, then SigProp and MagRef
	nw := (w + 63) >> 6
	// No clear: the kernel writes every word of each row's sets.
	e.nz = slices.Grow(e.nz[:0], h*nw)[:h*nw]
	e.bit = slices.Grow(e.bit[:0], h*nw)[:h*nw]
	for y := 0; y < h; y++ {
		simd.PlaneMaskRow(e.nz[y*nw:y*nw+nw], e.bit[y*nw:y*nw+nw], c.mag[y*w:y*w+w], uint(pCup))
	}
	nSig, dd := e.cleanup(c, w, h, pCup, gain2, mode == ModeHTRefine)
	if mode == ModeHT {
		dd = energy
	}

	e.magsgn.flush()
	e.mel.flush()
	e.vlc.flush()
	lenMEL, lenVLC := len(e.mel.w.buf), len(e.vlc.buf)
	out := make([]byte, 0, len(e.magsgn.buf)+lenMEL+lenVLC+htTrailerLen)
	out = append(out, e.magsgn.buf...)
	out = append(out, e.mel.w.buf...)
	out = append(out, e.vlc.buf...)
	out = append(out,
		byte(lenMEL), byte(lenMEL>>8), byte(lenMEL>>16),
		byte(lenVLC), byte(lenVLC>>8), byte(lenVLC>>16),
		byte(pCup))
	blk.Passes = append(blk.Passes, Pass{
		Type: PassCln, Plane: int8(pCup), CumLen: len(out), SegLen: int32(len(out)),
		DistDelta: dd, Scanned: int32(w * h), Coded: int32(nSig),
	})

	if pCup == 1 {
		// HT refinement: raw-bit SigProp then MagRef at plane 0, each its
		// own byte-aligned segment (every HT pass boundary is an exact
		// truncation point, like TERMALL on the MQ side).
		e.refine.reset()
		dd, coded := e.sigProp(c, w, h, gain2)
		e.refine.flush()
		seg := len(e.refine.buf)
		out = append(out, e.refine.buf...)
		blk.Passes = append(blk.Passes, Pass{
			Type: PassSig, Plane: 0, CumLen: len(out), SegLen: int32(seg),
			DistDelta: dd, Scanned: int32(w * h), Coded: int32(coded),
		})
		e.refine.reset()
		dd, coded = e.magRef(h*nw, gain2)
		e.refine.flush()
		seg = len(e.refine.buf)
		out = append(out, e.refine.buf...)
		blk.Passes = append(blk.Passes, Pass{
			Type: PassRef, Plane: 0, CumLen: len(out), SegLen: int32(seg),
			DistDelta: dd, Scanned: int32(w * h), Coded: int32(coded),
		})
	}
	blk.Data = out
	return blk
}

// evenBits marks the even bit positions: the first sample column of
// each quad in a row word.
const evenBits = 0x5555555555555555

// quadRho maps a quad's two 2-bit row patterns (top row in bits 0–1,
// bottom row in bits 2–3, left column first) to its column-major
// significance pattern ρ.
var quadRho = [16]uint8{0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15}

// cleanup codes the FBCOT cleanup pass at plane pCup: a 2×2 quad scan
// over 2-row stripes. A quad with an all-quiet causal neighborhood
// (left and above quads both empty — AZC) has its emptiness coded by
// the MEL run-length coder; every other quad (and every significant
// AZC quad) emits its 4-bit significance pattern into the VLC stream,
// followed by the quad's magnitude-exponent bound U_q as a prefix
// code. Each significant sample then contributes sign + (v−1) in U_q
// bits to the MagSgn stream. When track is set (ModeHTRefine) the
// pass also accumulates its distortion reduction.
//
// The scan runs on quad masks, one bit per quad at the even positions
// of a row word, built from the nz words of the stripe's two rows: a
// quad is non-empty when either row has a bit in its two columns, and
// it is AZC when neither the quad above nor the one to its left is
// non-empty. Only the non-empty quads are visited. An empty quad loads
// no magnitude: it is a MEL zero when AZC and four zero VLC bits
// otherwise, and both are counted by popcount and emitted in batches
// just before the next event of their own stream, so each stream keeps
// its order.
//
// Emission is packed: ρ and the U_q code word leave in one VLC put, and
// each sample's sign and magnitude form one MagSgn field of U_q+1 bits
// (exact because packing is LSB-first). The four fields of a quad are
// built without branching on significance: an empty sample's field is
// empty.
func (e *htEncoder) cleanup(c *coder, w, h, pCup int, gain2 float64, track bool) (nSig int, dd float64) {
	e.magsgn.reset()
	e.vlc.reset()
	e.mel.reset()
	nw := (w + 63) >> 6
	e.rows = zeroed(e.rows, nw)
	above := e.rows // quad masks of the stripe above
	up := uint(pCup)
	// errA, the plane-pCup midpoint's residual error, is 1 exactly when
	// pCup = 1 and the dropped LSB is 0: errA = ^m & errLSB.
	errLSB := uint32(pCup)
	mag, flags, fw, nz := c.mag, c.flags, c.fw, e.nz
	ms, vlc, mel := &e.magsgn, &e.vlc, &e.mel
	// Quads of the last word of a row that lie inside the block.
	lastValid := evenBits & (^uint64(0) >> ((64 - w&63) & 63))
	// Flag and magnitude offsets of quad sample i from its top-left:
	// column-major, bit0 (x0,y0), bit1 (x0,y0+1), bit2 (x0+1,y0),
	// bit3 (x0+1,y0+1).
	fOff := [4]int{0, fw, 1, fw + 1}
	mOff := [4]int{0, w, 1, w + 1}
	var acc uint64 // pending MagSgn bits, LSB first
	var n uint
	melZeros, vlcZeros := 0, 0 // empty-quad events not yet emitted
	for y0 := 0; y0 < h; y0 += 2 {
		tall := y0+1 < h
		var left uint64 // the previous word's last quad, at bit 0
		for wi := 0; wi < nw; wi++ {
			r0, r1 := nz[y0*nw+wi], uint64(0)
			if tall {
				r1 = nz[(y0+1)*nw+wi]
			}
			valid := uint64(evenBits)
			if wi == nw-1 {
				valid = lastValid
			}
			quads := (r0 | r1 | (r0|r1)>>1) & evenBits // the non-empty ones
			azc := ^(above[wi] | quads<<2 | left) & valid
			above[wi], left = quads, quads>>62
			empty := valid &^ quads
			for t := quads; t != 0; t &= t - 1 {
				b := uint(bits.TrailingZeros64(t))
				if empty != 0 {
					before := empty & (1<<b - 1)
					melZeros += bits.OnesCount64(before & azc)
					vlcZeros += bits.OnesCount64(before &^ azc)
					empty &^= before
				}
				if azc>>b&1 != 0 {
					if melZeros != 0 {
						mel.encodeZeros(melZeros)
						melZeros = 0
					}
					mel.encode(1)
				}
				if vlcZeros != 0 {
					vlc.putZeros(4 * vlcZeros)
					vlcZeros = 0
				}

				x0 := wi<<6 + int(b)
				mi := y0*w + x0
				v0 := mag[mi] >> up
				var v1, v2, v3 uint32
				if tall {
					v1 = mag[mi+w] >> up
				}
				if x0+1 < w {
					v2 = mag[mi+1] >> up
					if tall {
						v3 = mag[mi+w+1] >> up
					}
				}
				rho := uint32(quadRho[(r0>>b&3|r1>>b&3<<2)&15])
				umax := bits.Len32(v0 | v1 | v2 | v3) // the largest sample bit length
				uc := uexpCode[umax-1]
				vlc.put(rho|uint32(uc&0xFF)<<4, 4+uint(uc>>8))
				nSig += bits.OnesCount32(rho)
				fi := (y0+1)*fw + x0 + 1
				// MagSgn fields collect in the local word (acc, n) and go to
				// the writer 32 bits at a time; every field is at most 32
				// bits and fewer than 32 are pending before it, so the word
				// never overflows. The border words absorb the flag loads of
				// samples outside the block; those samples are empty and
				// contribute 0 bits.
				nb := uint32(umax) + 1
				switch {
				case nb <= 8:
					// The quad's four fields fit one 32-bit field.
					q, qn := magSgn(v0, flags[fi], nb)
					f, fn := magSgn(v1, flags[fi+fw], nb)
					q |= f << qn
					qn += fn
					f, fn = magSgn(v2, flags[fi+1], nb)
					q |= f << qn
					qn += fn
					f, fn = magSgn(v3, flags[fi+fw+1], nb)
					q |= f << qn
					qn += fn
					acc |= uint64(q) << n
					n += uint(qn)
					if n >= 32 {
						ms.put(uint32(acc), 32)
						acc >>= 32
						n -= 32
					}
				case nb <= 32:
					for i, v := range [4]uint32{v0, v1, v2, v3} {
						f, fn := magSgn(v, flags[fi+fOff[i]], nb)
						acc |= uint64(f) << n
						n += uint(fn)
						if n >= 32 {
							ms.put(uint32(acc), 32)
							acc >>= 32
							n -= 32
						}
					}
				default:
					// A 33-bit field exceeds one put: sign, then magnitude.
					ms.put(uint32(acc), n)
					acc, n = 0, 0
					for i, v := range [4]uint32{v0, v1, v2, v3} {
						if v != 0 {
							ms.put(negBit(flags[fi+fOff[i]]), 1)
							ms.put(v-1, 32)
						}
					}
				}
				if track {
					// dd must accumulate in sample order, quad by quad, as
					// the per-bit encoder did: PCRD consumes it, so the float
					// sum's order is part of the codestream contract.
					for r := rho; r != 0; r &= r - 1 {
						i := bits.TrailingZeros32(r)
						// Midpoint reconstruction at pCup: exact for pCup = 0;
						// at pCup = 1 the residual error is 1 exactly when the
						// dropped LSB is 0.
						m := mag[mi+mOff[i]]
						errA := float64(^m & errLSB)
						dd += float64((float64(float64(m)*float64(m)) - errA) * gain2)
					}
				}
			}
			melZeros += bits.OnesCount64(empty & azc)
			vlcZeros += bits.OnesCount64(empty &^ azc)
		}
	}
	mel.encodeZeros(melZeros)
	vlc.putZeros(4 * vlcZeros)
	ms.put(uint32(acc), n)
	return nSig, dd
}

// nonZero is 1 when v != 0 and 0 otherwise, without a branch.
func nonZero(v uint32) uint32 { return (v | -v) >> 31 }

// negBit is the sign of a flag word's sample: 1 when fwNeg is set.
func negBit(fv uint32) uint32 { return fv >> 3 & 1 }

// magSgn returns one sample's MagSgn field, the sign bit of its flag
// word fv under v−1, and its length nb; an empty sample (v = 0) gets
// the empty field.
func magSgn(v, fv, nb uint32) (field, n uint32) {
	mask := -nonZero(v)
	return (negBit(fv) | (v-1)<<1) & mask, nb & mask
}

// sigProp is the HT significance propagation pass at plane 0: a raw
// bit (no arithmetic coding — T.814 codes these passes "raw") for
// every still-insignificant sample with at least one significant
// neighbor, plus a sign bit when it fires. Membership evolves during
// the scan exactly as on the decode side, in raster order.
//
// The encoder finds the members a row at a time on the block's bit
// sets, 64 samples to a word, instead of sample by sample on flag
// words. After the plane-1 cleanup a sample is significant exactly
// when its nz bit is set, and an insignificant sample's plane-0 bit is
// its magnitude (one = bit &^ nz: magnitude exactly 1). In raster order
// an insignificant sample is a member when a neighbor was significant
// after cleanup, arrived in the row above, or is its left neighbor and
// arrived in this row. So arrivals run rightward through consecutive
// one-samples from a member, which one carry-propagating add finds for
// a whole row.
func (e *htEncoder) sigProp(c *coder, w, h int, gain2 float64) (dd float64, coded int) {
	nw := (w + 63) >> 6
	e.rows = zeroed(e.rows, 4*nw)
	sig := e.nz
	valid := ^uint64(0) >> ((64 - w&63) & 63) // in-block bits of a row's last word
	near, memb := e.rows[:nw], e.rows[nw:2*nw]
	prevA, curA := e.rows[2*nw:3*nw], e.rows[3*nw:]
	flags, fw := c.flags, c.fw
	wr := &e.refine
	var acc uint64 // pending bits, fewer than 32 between members
	var n uint
	arrivals := 0
	for y := 0; y < h; y++ {
		s, pb := sig[y*nw:(y+1)*nw], e.bit[y*nw:(y+1)*nw]
		// near: the samples whose horizontal dilation makes members —
		// significant in this row or the rows around it, or arrived in
		// the row above.
		for i := range near {
			v := s[i] | prevA[i]
			if y > 0 {
				v |= sig[(y-1)*nw+i]
			}
			if y+1 < h {
				v |= sig[(y+1)*nw+i]
			}
			near[i] = v
		}
		carry, aLo, nLo := uint64(0), uint64(0), uint64(0)
		for i, v := range near {
			nHi := uint64(0)
			if i+1 < nw {
				nHi = near[i+1] << 63
			}
			cand := (v | v<<1 | nLo | v>>1 | nHi) &^ s[i]
			if i == nw-1 {
				cand &= valid
			}
			// Arrivals: the one-runs reached from a one-candidate, the
			// carry crossing into the next word with the run.
			o := pb[i] &^ s[i]
			seeds := cand & o
			sum, cout := bits.Add64(o, seeds, carry)
			a := (sum ^ o | seeds) & o
			m := (cand | a<<1 | aLo) &^ s[i]
			if i == nw-1 {
				m &= valid
			}
			curA[i], memb[i] = a, m
			carry, aLo, nLo = cout, a>>63, v>>63
		}
		fr := (y+1)*fw + 1 // flags index of (0, y)
		for i, mw := range memb {
			aw := curA[i]
			for t := mw; t != 0; t &= t - 1 {
				b := bits.TrailingZeros64(t)
				bit := uint32(aw>>b) & 1
				sgn := negBit(flags[fr+i<<6+b]) & bit
				acc |= uint64(bit|sgn<<1) << n
				n += uint(1 + bit)
				if n >= 32 {
					wr.put(uint32(acc), 32)
					acc >>= 32
					n -= 32
				}
			}
			na := bits.OnesCount64(aw)
			coded += bits.OnesCount64(mw) + na
			arrivals += na
		}
		prevA, curA = curA, prevA
	}
	wr.put(uint32(acc), n)
	// Each arrival (magnitude 1) becomes exact. dd must equal the
	// in-scan sum bit for bit (PCRD consumes it); every term is gain2,
	// so the same count of adds after the scan gives exactly that sum.
	for ; arrivals > 0; arrivals-- {
		dd += gain2
	}
	return dd, coded
}

// zeroed returns s resized to n cleared elements, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// magRef is the HT magnitude refinement pass at plane 0: a raw LSB for
// every sample significant after cleanup (its nz bit — SigProp
// arrivals have magnitude 1 and are excluded on both sides), in raster
// order over the first nWords words of the bit sets. After it, those
// samples are exact; before it, the plane-1 midpoint missed by 1
// exactly when the LSB is 0. The members' LSBs are their bits of the
// bit set, gathered word by word: a half word of members goes out
// whole, a partial one bit by bit over its set members. The coded and
// zero counts are popcounts.
func (e *htEncoder) magRef(nWords int, gain2 float64) (dd float64, coded int) {
	wr := &e.refine
	var acc uint64 // pending bits, fewer than 32 between half words
	var n uint
	zeros := 0 // members whose LSB is 0
	for i, m := range e.nz[:nWords] {
		b := e.bit[i]
		coded += bits.OnesCount64(m)
		zeros += bits.OnesCount64(m &^ b)
		for ; m != 0; m, b = m>>32, b>>32 {
			if mh, bh := uint32(m), uint32(b); mh == ^uint32(0) {
				acc |= uint64(bh) << n
				n += 32
			} else {
				for t := mh; t != 0; t &= t - 1 {
					acc |= uint64(bh>>bits.TrailingZeros32(t)&1) << n
					n++
				}
			}
			if n >= 32 {
				wr.put(uint32(acc), 32)
				acc >>= 32
				n -= 32
			}
		}
	}
	wr.put(uint32(acc), n)
	// As in sigProp: every term is gain2, so the same count of adds
	// after the scan gives the in-scan sum bit for bit.
	for ; zeros > 0; zeros-- {
		dd += gain2
	}
	return dd, coded
}
