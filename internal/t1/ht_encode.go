package t1

import (
	"math/bits"

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
// raw-bit refinement passes, the quad significance history, and the
// SigProp bit sets.
//
// The per-bit encoder these emitters replace is kept in
// ht_oracle_test.go; the tests there require identical blocks.
type htEncoder struct {
	magsgn  htWriter
	vlc     htWriter
	mel     melEncoder
	refine  htWriter // SigProp / MagRef segments, one at a time
	prevRho []uint8  // significance pattern of the quad row above
	rowOR   []uint32 // OR of the magnitudes of each 2-row quad stripe
	sig     []uint64 // significant after the plane-1 cleanup, per row
	one     []uint64 // magnitude exactly 1, per row
	rows    []uint64 // SigProp's four per-row working sets
}

// encodeHT runs the HTJ2K (Part 15) FBCOT coder on one block. In
// ModeHT everything is coded by a single cleanup pass at plane 0 — an
// exact representation of the quantized coefficients, so a reversible
// upstream chain stays lossless. In ModeHTRefine (rate-constrained
// encodes) the cleanup pass runs at plane 1 and HT SigProp + MagRef
// raw-bit passes finish plane 0, giving PCRD three truncation points
// per block. Shares the pooled coder scratch, the simd load kernels,
// and the Block/Pass contract with the MQ encoder.
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

	e.rowOR = zeroed(e.rowOR, (h+1)/2)

	// Same load traversal as the MQ encoder: magnitudes plus a running
	// OR from the simd row kernels (bits.Len32(OR) == bits.Len32(max)), sign
	// flags, and the per-quad-row OR masks that drive the MEL fast path.
	gain2 := gain * gain
	orAll := uint32(0)
	dist0 := 0.0
	for y := 0; y < h; y++ {
		coefRow := coef[y*stride : y*stride+w]
		magRow := c.mag[y*w : y*w+w]
		ror := simd.AbsOrRow(magRow, coefRow)
		orAll |= ror
		e.rowOR[y>>1] |= ror
		simd.SignOrRow(c.flags[c.fidx(0, y):c.fidx(0, y)+w], coefRow, fwNeg)
		for _, m := range magRow {
			dist0 += float64(m) * float64(m) * gain2
		}
	}
	numBPS := bits.Len32(orAll)
	blk := &Block{W: w, H: h, Orient: orient, NumBPS: numBPS, Mode: mode, Dist0: dist0}
	if numBPS == 0 {
		return blk
	}

	refine := mode == ModeHTRefine
	pCup := 0
	if refine && numBPS >= 2 {
		pCup = 1
	}
	nSig, dd := e.cleanup(c, w, h, pCup, gain2, refine)
	if !refine {
		dd = dist0 // cleanup at plane 0 reconstructs everything exactly
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
		Type: PassCln, Plane: pCup, CumLen: len(out), SegLen: len(out),
		DistDelta: dd, Scanned: w * h, Coded: nSig,
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
			Type: PassSig, Plane: 0, CumLen: len(out), SegLen: seg,
			DistDelta: dd, Scanned: w * h, Coded: coded,
		})
		e.refine.reset()
		dd, coded = e.magRef(c, w, h, gain2)
		e.refine.flush()
		seg = len(e.refine.buf)
		out = append(out, e.refine.buf...)
		blk.Passes = append(blk.Passes, Pass{
			Type: PassRef, Plane: 0, CumLen: len(out), SegLen: seg,
			DistDelta: dd, Scanned: w * h, Coded: coded,
		})
	}
	blk.Data = out
	return blk
}

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
// Emission is packed: ρ and the U_q code word leave in one VLC put, and
// each sample's sign and magnitude form one MagSgn field of U_q+1 bits
// (exact because packing is LSB-first). The four fields of a quad are
// built without branching on significance: an empty sample's field is
// empty.
func (e *htEncoder) cleanup(c *coder, w, h, pCup int, gain2 float64, track bool) (nSig int, dd float64) {
	e.magsgn.reset()
	e.vlc.reset()
	e.mel.reset()
	nqx := (w + 1) / 2
	nqy := (h + 1) / 2
	e.prevRho = zeroed(e.prevRho, nqx)
	up := uint(pCup)
	// errA, the plane-pCup midpoint's residual error, is 1 exactly when
	// pCup = 1 and the dropped LSB is 0: errA = ^m & errLSB.
	errLSB := uint32(pCup)
	mag, flags, fw := c.mag, c.flags, c.fw
	prevRho := e.prevRho
	ms, vlc := &e.magsgn, &e.vlc
	// Flag and magnitude offsets of quad sample i from its top-left:
	// column-major, bit0 (x0,y0), bit1 (x0,y0+1), bit2 (x0+1,y0),
	// bit3 (x0+1,y0+1).
	fOff := [4]int{0, fw, 1, fw + 1}
	mOff := [4]int{0, w, 1, w + 1}
	var acc uint64 // pending MagSgn bits, LSB first
	var n uint
	prevZero := true // quad row above entirely empty
	for qy := 0; qy < nqy; qy++ {
		y0 := qy * 2
		if prevZero && e.rowOR[qy]>>up == 0 {
			// Whole quad row empty above an empty row: every quad is AZC
			// with event 0 — byte-identical to the per-quad path below,
			// but one batched MEL call instead of nqx quad visits.
			e.mel.encodeZeros(nqx)
			continue
		}
		tall := y0+1 < h
		left := uint8(0)
		rowZero := true
		for qx := 0; qx < nqx; qx++ {
			x0 := qx * 2
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
			rho := nonZero(v0) | nonZero(v1)<<1 | nonZero(v2)<<2 | nonZero(v3)<<3
			if left|prevRho[qx] == 0 { // AZC quad
				if rho == 0 {
					e.mel.encode(0)
					prevRho[qx] = 0
					left = 0
					continue
				}
				e.mel.encode(1)
			}
			prevRho[qx] = uint8(rho)
			left = uint8(rho)
			if rho == 0 {
				vlc.put(0, 4)
				continue
			}
			rowZero = false
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
				// dd must accumulate in sample order, quad by quad, as the
				// per-bit encoder did: PCRD consumes it, so the float
				// sum's order is part of the codestream contract.
				for r := rho; r != 0; r &= r - 1 {
					i := bits.TrailingZeros32(r)
					// Midpoint reconstruction at pCup: exact for pCup = 0;
					// at pCup = 1 the residual error is 1 exactly when the
					// dropped LSB is 0.
					m := mag[mi+mOff[i]]
					errA := float64(^m & errLSB)
					dd += (float64(m)*float64(m) - errA) * gain2
				}
			}
		}
		prevZero = rowZero
	}
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
// The encoder finds the members a row at a time on bit sets, 64
// samples to a word, instead of sample by sample on flag words. After
// the plane-1 cleanup a sample is significant exactly when mag>>1 != 0
// (sig), and an insignificant sample's plane-0 bit is its magnitude
// (one: mag == 1). In raster order an insignificant sample is a member
// when a neighbor was significant after cleanup, arrived in the row
// above, or is its left neighbor and arrived in this row. So arrivals
// run rightward through consecutive one-samples from a member, which
// one carry-propagating add finds for a whole row.
func (e *htEncoder) sigProp(c *coder, w, h int, gain2 float64) (dd float64, coded int) {
	nw := (w + 63) >> 6
	e.sig = zeroed(e.sig, h*nw)
	e.one = zeroed(e.one, h*nw)
	e.rows = zeroed(e.rows, 4*nw)
	sig, one := e.sig, e.one
	mag := c.mag
	for y := 0; y < h; y++ {
		row := mag[y*w : y*w+w]
		for i := 0; i < nw; i++ {
			var sw, ow uint64
			for b, m := range row[i<<6 : min(i<<6+64, w)] {
				// m <= 1<<31, so bit 31 of m+0x7FFFFFFE is m >= 2, and
				// m^1 - 1 wraps to bit 63 only for m == 1.
				sw |= uint64((m+0x7FFFFFFE)>>31) << b
				ow |= (uint64(m^1) - 1) >> 63 << b
			}
			sig[y*nw+i], one[y*nw+i] = sw, ow
		}
	}

	valid := ^uint64(0) >> ((64 - w&63) & 63) // in-block bits of a row's last word
	near, memb := e.rows[:nw], e.rows[nw:2*nw]
	prevA, curA := e.rows[2*nw:3*nw], e.rows[3*nw:]
	flags, fw := c.flags, c.fw
	wr := &e.refine
	var acc uint64 // pending bits, fewer than 32 between members
	var n uint
	arrivals := 0
	for y := 0; y < h; y++ {
		s, o := sig[y*nw:(y+1)*nw], one[y*nw:(y+1)*nw]
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
			seeds := cand & o[i]
			sum, cout := bits.Add64(o[i], seeds, carry)
			a := (sum ^ o[i] | seeds) & o[i]
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
// every sample significant after cleanup (mag>>1 != 0 — SigProp
// arrivals have magnitude 1 and are excluded on both sides). After it,
// those samples are exact; before it, the plane-1 midpoint missed by 1
// exactly when the LSB is 0. Membership is an add, not a branch: a
// non-member contributes a masked-off bit and advances nothing. The
// bits collect in a local word that goes to the writer 32 at a time.
func (e *htEncoder) magRef(c *coder, w, h int, gain2 float64) (dd float64, coded int) {
	wr := &e.refine
	var acc uint64 // pending bits, fewer than 32 between rounds
	var n uint
	zeros := uint32(0) // members whose LSB is 0
	mag := c.mag[:w*h]
	i := 0
	for ; i+4 <= len(mag); i += 4 {
		// Four samples per round: their bits pack into one word, then
		// one overflow check.
		m0, m1, m2, m3 := mag[i], mag[i+1], mag[i+2], mag[i+3]
		in0, in1, in2, in3 := nonZero(m0>>1), nonZero(m1>>1), nonZero(m2>>1), nonZero(m3>>1)
		q := m0 & in0
		k := in0
		q |= (m1 & in1) << k
		k += in1
		q |= (m2 & in2) << k
		k += in2
		q |= (m3 & in3) << k
		k += in3
		acc |= uint64(q) << n
		n += uint(k)
		coded += int(k)
		zeros += in0&^m0 + in1&^m1 + in2&^m2 + in3&^m3
		if n >= 32 {
			wr.put(uint32(acc), 32)
			acc >>= 32
			n -= 32
		}
	}
	for _, m := range mag[i:] {
		in := nonZero(m >> 1)
		acc |= uint64(m&in) << n
		n += uint(in)
		coded += int(in)
		zeros += in &^ m
	}
	if n >= 32 {
		wr.put(uint32(acc), 32)
		acc >>= 32
		n -= 32
	}
	wr.put(uint32(acc), n)
	// As in sigProp: every term is gain2, so the same count of adds
	// after the scan gives the in-scan sum bit for bit.
	for ; zeros > 0; zeros-- {
		dd += gain2
	}
	return dd, coded
}
