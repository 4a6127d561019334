package t1

import (
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
// raw-bit refinement passes, and the quad significance history.
type htEncoder struct {
	magsgn  htWriter
	vlc     htWriter
	mel     melEncoder
	refine  htWriter // SigProp / MagRef segments, one at a time
	prevRho []uint8  // significance pattern of the quad row above
	rowOR   []uint32 // OR of the magnitudes of each 2-row quad stripe
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

	nqy := (h + 1) / 2
	if cap(e.rowOR) < nqy {
		e.rowOR = make([]uint32, nqy)
	} else {
		e.rowOR = e.rowOR[:nqy]
		clear(e.rowOR)
	}

	// Same load traversal as the MQ encoder: magnitudes plus a running
	// OR from the simd row kernels (bitLen(OR) == bitLen(max)), sign
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
	numBPS := bitLen(orAll)
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
// pass also propagates significance into the flag words for SigProp
// and accumulates its distortion reduction.
func (e *htEncoder) cleanup(c *coder, w, h, pCup int, gain2 float64, track bool) (nSig int, dd float64) {
	e.magsgn.reset()
	e.vlc.reset()
	e.mel.reset()
	nqx := (w + 1) / 2
	nqy := (h + 1) / 2
	if cap(e.prevRho) < nqx {
		e.prevRho = make([]uint8, nqx)
	} else {
		e.prevRho = e.prevRho[:nqx]
		clear(e.prevRho)
	}
	up := uint(pCup)
	mag, flags, fw := c.mag, c.flags, c.fw
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
			// Sample order within the quad is column-major:
			// bit0 (x0,y0), bit1 (x0,y0+1), bit2 (x0+1,y0), bit3 (x0+1,y0+1).
			var v [4]uint32
			rho := uint8(0)
			v[0] = mag[mi] >> up
			if v[0] != 0 {
				rho |= 1
			}
			if tall {
				v[1] = mag[mi+w] >> up
				if v[1] != 0 {
					rho |= 2
				}
			}
			if x0+1 < w {
				v[2] = mag[mi+1] >> up
				if v[2] != 0 {
					rho |= 4
				}
				if tall {
					v[3] = mag[mi+w+1] >> up
					if v[3] != 0 {
						rho |= 8
					}
				}
			}
			if left|e.prevRho[qx] == 0 { // AZC quad
				if rho == 0 {
					e.mel.encode(0)
					e.prevRho[qx] = 0
					left = 0
					continue
				}
				e.mel.encode(1)
			}
			e.vlc.put(uint32(rho), 4)
			if rho != 0 {
				rowZero = false
				umax := 0
				for _, vv := range v {
					if bl := bitLen(vv); bl > umax {
						umax = bl
					}
				}
				putUExp(&e.vlc, umax-1)
				ub := uint(umax)
				fi := (y0+1)*fw + x0 + 1
				for i := 0; i < 4; i++ {
					if v[i] == 0 {
						continue
					}
					fj, mj := fi, mi
					if i&1 != 0 {
						fj += fw
						mj += w
					}
					if i&2 != 0 {
						fj++
						mj++
					}
					neg := flags[fj]&fwNeg != 0
					s := uint32(0)
					if neg {
						s = 1
					}
					e.magsgn.put(s, 1)
					e.magsgn.put(v[i]-1, ub)
					nSig++
					if track {
						// Midpoint reconstruction at pCup: exact for
						// pCup = 0; at pCup = 1 the residual error is 1
						// exactly when the dropped LSB is 0.
						m := mag[mj]
						errA := 0.0
						if pCup == 1 && m&1 == 0 {
							errA = 1
						}
						dd += (float64(m)*float64(m) - errA) * gain2
						c.setSig(fj, neg)
					}
				}
			}
			e.prevRho[qx] = rho
			left = rho
		}
		prevZero = rowZero
	}
	return nSig, dd
}

// sigProp is the HT significance propagation pass at plane 0: a raw
// bit (no arithmetic coding — T.814 codes these passes "raw") for
// every still-insignificant sample with at least one significant
// neighbor, plus a sign bit when it fires. Membership evolves during
// the scan exactly as on the decode side — both walk the same raster
// order over the same incrementally-updated flag words.
func (e *htEncoder) sigProp(c *coder, w, h int, gain2 float64) (dd float64, coded int) {
	f, mag, fw := c.flags, c.mag, c.fw
	wr := &e.refine
	for y := 0; y < h; y++ {
		fi := (y+1)*fw + 1
		mi := y * w
		for x := 0; x < w; x++ {
			fv := f[fi]
			if fv&fwSig == 0 && fv&fwSigNbr != 0 {
				// Insignificant after cleanup at plane 1 means mag <= 1,
				// so the plane-0 bit is the magnitude itself.
				bit := mag[mi]
				wr.put(bit, 1)
				coded++
				if bit != 0 {
					neg := fv&fwNeg != 0
					s := uint32(0)
					if neg {
						s = 1
					}
					wr.put(s, 1)
					coded++
					c.setSig(fi, neg)
					dd += gain2 // the sample (magnitude 1) becomes exact
				}
			}
			fi++
			mi++
		}
	}
	return dd, coded
}

// magRef is the HT magnitude refinement pass at plane 0: a raw LSB for
// every sample significant after cleanup (mag>>1 != 0 — SigProp
// arrivals have magnitude 1 and are excluded on both sides). After it,
// those samples are exact; before it, the plane-1 midpoint missed by 1
// exactly when the LSB is 0.
func (e *htEncoder) magRef(c *coder, w, h int, gain2 float64) (dd float64, coded int) {
	mag := c.mag
	wr := &e.refine
	for i := 0; i < w*h; i++ {
		m := mag[i]
		if m>>1 != 0 {
			wr.put(m&1, 1)
			coded++
			if m&1 == 0 {
				dd += gain2
			}
		}
	}
	return dd, coded
}
