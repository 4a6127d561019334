package t1

import (
	"math/bits"
	"slices"

	"j2kcell/internal/dwt"
	"j2kcell/internal/mq"
	"j2kcell/internal/simd"
)

// encoder drives the three coding passes over a block.
type encoder struct {
	*coder
	mq    mq.Encoder
	mode  Mode
	out   []byte  // concatenated segments, staged across blocks
	gain2 float64 // squared synthesis gain for distortion weighting

	// stripeOR[s*w+x] is the OR of the magnitudes of the (up to) four
	// coefficients of stripe s, column x — computed once when the block
	// is loaded. (stripeOR>>p)&1 answers "does any coefficient of this
	// stripe column carry bit p" in one load, which lets the refinement
	// pass skip columns with nothing significant yet and the cleanup
	// pass emit the run-length bit for an all-quiet column without
	// scanning its coefficients. Planes above a stripe's local numBPS
	// are thereby never scanned at all.
	stripeOR []uint32

	// ops is the deferred MQ decision buffer for the current pass: each
	// entry packs ctx<<1 | d. The passes only decide what to code — the
	// decision sequence never depends on the arithmetic coder's interval
	// state — so runPass hands the whole pass to mq.EncodeBatch at once
	// and the MQ registers stay in locals for the entire pass.
	ops []uint8

	// Per-pass accumulators.
	scanned   int
	distDelta float64
}

// Encode runs Tier-1 on a w×h code block of signed coefficients read
// from coef with the given row stride. orient selects the context
// tables, mode the termination style, and gain the subband synthesis
// L2 norm used to weight distortion. The input is not modified.
// The returned block carries its own workload figures (per-pass scan
// and decision counts, MQ renormalizations); the caller records them.
func Encode(coef []int32, w, h, stride int, orient dwt.Orient, mode Mode, gain float64) *Block {
	if mode.IsHT() {
		return encodeHT(coef, w, h, stride, orient, mode, gain)
	}
	// invariant: block geometry comes from PlanBlocks, which never emits
	// empty blocks; encode-side only (decode sizes are clamped to the band).
	if w <= 0 || h <= 0 {
		panic("t1: empty code block")
	}
	c := newCoder(w, h, orient)
	defer c.release()

	e := getEncoder()
	defer putEncoder(e)
	ns := (h + 3) / 4
	if n := ns * w; cap(e.stripeOR) < n {
		e.stripeOR = make([]uint32, n)
	} else {
		e.stripeOR = e.stripeOR[:n]
		clear(e.stripeOR)
	}
	// A cleanup pass codes at most 10 bits per 4-high stripe column
	// (RL + two UNI + sign, then up to two bits for each remaining
	// coefficient), so 3·w·h bounds any pass's op count.
	if n := 3 * w * h; cap(e.ops) < n {
		e.ops = make([]uint8, 0, n)
	}

	// The load traversal runs row-kernels from the simd layer: magnitudes
	// plus a running OR (bits.Len32(OR) == bits.Len32(max), which is all numBPS
	// needs), the stripe OR masks, and the sign flags.
	orAll := uint32(0)
	for y := 0; y < h; y++ {
		coefRow := coef[y*stride : y*stride+w]
		magRow := c.mag[y*w : y*w+w]
		orAll |= simd.AbsOrRow(magRow, coefRow)
		simd.OrRow(e.stripeOR[(y/4)*w:(y/4)*w+w], magRow)
		simd.SignOrRow(c.flags[c.fidx(0, y):c.fidx(0, y)+w], coefRow, fwNeg)
	}
	numBPS := bits.Len32(orAll)
	blk := &Block{W: w, H: h, Orient: orient, NumBPS: numBPS, Mode: mode}
	if numBPS == 0 {
		return blk
	}

	// A cleanup pass on every plane and a significance and refinement
	// pass below the top one: the pass list has its exact length.
	blk.Passes = make([]Pass, 0, 3*numBPS-2)
	e.coder, e.mode, e.gain2, e.out = c, mode, gain*gain, e.out[:0]
	e.mq.Reset()

	for p := numBPS - 1; p >= 0; p-- {
		if p != numBPS-1 {
			e.runPass(blk, PassSig, p)
			e.runPass(blk, PassRef, p)
		}
		e.runPass(blk, PassCln, p)
	}
	if mode.Base() == ModeSingle {
		e.out = append(e.out, e.mq.Flush()...)
		for i := range blk.Passes {
			blk.Passes[i].CumLen = len(e.out) // only the whole thing is decodable
		}
		blk.Passes[len(blk.Passes)-1].SegLen = int32(len(e.out))
	}
	// The segments were staged in the pooled encoder's buffer; the block
	// keeps one copy at its exact size.
	blk.Data = slices.Clone(e.out)
	// Drained for every coded block, so the pooled MQ encoder never
	// carries a count into the next one.
	blk.Renorms = e.mq.TakeRenorms()
	return blk
}

// runPass executes one coding pass — collecting its decisions, then
// arithmetic-coding them in one batch — and records its statistics.
func (e *encoder) runPass(blk *Block, t PassType, plane int) {
	e.scanned, e.distDelta = 0, 0
	e.ops = e.ops[:0]
	switch t {
	case PassSig:
		e.sigPass(plane)
	case PassRef:
		e.refPass(plane)
	case PassCln:
		e.clnPass(plane)
		if e.mode.SegSym() {
			// Segmentation symbol: 1010 in the UNIFORM context closes
			// every cleanup pass so the decoder can detect MQ
			// desynchronization caused by damage earlier in the segment.
			e.ops = append(e.ops, ctxUNI<<1|1, ctxUNI<<1|0, ctxUNI<<1|1, ctxUNI<<1|0)
		}
	}
	e.mq.EncodeBatch(e.ops, e.cx[:])
	ps := Pass{Type: t, Plane: int8(plane), DistDelta: e.distDelta, Scanned: int32(e.scanned), Coded: int32(len(e.ops))}
	if e.mode.Base() == ModeTermAll {
		seg := e.mq.Flush()
		e.out = append(e.out, seg...)
		ps.SegLen = int32(len(seg))
		ps.CumLen = len(e.out)
		e.mq.Reset()
		// TERMALL restarts only the MQ codeword, not the contexts.
	} else {
		ps.CumLen = e.mq.NumBytes() // provisional; fixed after final flush
	}
	blk.Passes = append(blk.Passes, ps)
}

// sigDistDelta is the weighted distortion reduction when a coefficient
// with true magnitude m becomes significant at plane p (reconstruction
// moves from 0 to the midpoint of its quantization cell). The error
// after, m - (trunc_p(m) + half_p), is an exact integer (or -0.5 at
// p = 0) well below 2^53, so the masked subtraction reproduces the
// reference float chain bit for bit.
func (e *encoder) sigDistDelta(m uint32, p int) float64 {
	var after float64
	if p == 0 {
		after = -0.5
	} else {
		mask := (uint32(1) << uint(p)) - 1
		after = float64(int32(m&mask) - int32(1)<<uint(p-1))
	}
	before := float64(m)
	return float64((float64(before*before) - float64(after*after)) * e.gain2)
}

// codeSignificance codes the sign of a coefficient that just became
// significant, propagates its significance into the neighbor flag
// words, and returns the distortion reduction. The caller accounts for
// the sign bit in its coded counter.
func (e *encoder) codeSignificance(ops []uint8, fi, mi, p int) ([]uint8, float64) {
	fv := e.flags[fi]
	sc := lutSC[scIndex(fv)]
	sign := uint8(0)
	if fv&fwNeg != 0 {
		sign = 1
	}
	ops = append(ops, (uint8(ctxSC)+sc&7)<<1|(sign^sc>>3))
	e.setSig(fi, fv&fwNeg != 0)
	return ops, e.sigDistDelta(e.mag[mi], p)
}

// sigPass is the significance propagation pass: insignificant
// coefficients with a preferred (non-zero-context) neighborhood. A
// stripe column whose words carry no neighbor-significance bits has
// zero-coding context 0 everywhere and is skipped in one OR.
func (e *encoder) sigPass(p int) {
	w, h, fw := e.w, e.h, e.fw
	f, mag := e.flags, e.mag
	zc := &lutZC[e.zcTab]
	vp := visitStamp(p)
	up := uint(p)
	dd := e.distDelta
	ops := e.ops
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
			// Nothing to code when no coefficient has a significant
			// neighbor (all contexts zero) or when every coefficient is
			// already significant (the pass only codes insignificant ones).
			if or&fwSigNbr == 0 || and&fwSig != 0 {
				continue
			}
			mi := mi0 + x
			for k := 0; k < sh; k++ {
				fv := f[fi]
				if fv&fwSig == 0 {
					if c := zc[fv>>4&0xFF]; c != 0 {
						bit := uint8(mag[mi] >> up & 1)
						ops = append(ops, (uint8(ctxZC)+c)<<1|bit)
						if bit == 1 {
							var d float64
							ops, d = e.codeSignificance(ops, fi, mi, p)
							dd += d
						}
						f[fi] = f[fi]&^fwVisitMask | vp
					}
				}
				fi += fw
				mi += w
			}
		}
	}
	// Each column contributes its stripe height whether skipped or not.
	e.scanned += w * h
	e.distDelta = dd
	e.ops = ops
}

// refPass is the magnitude refinement pass: coefficients significant
// before this plane — exactly those whose magnitude has a bit above
// plane p, so the stripe OR masks skip entire columns (and all planes
// above a stripe's local numBPS) without touching the flag words.
func (e *encoder) refPass(p int) {
	w, h, fw := e.w, e.h, e.fw
	f, mag := e.flags, e.mag
	gain2 := e.gain2
	up := uint(p)
	// The distortion deltas compare the reconstructions before and after
	// this bit: errB = m - (trunc_{p+1}(m) + 2^p) and errA = m -
	// (trunc_p(m) + half_p). Every term is an integer (or ±0.5 at p = 0)
	// far below 2^53, so the seed's float chain computed these errors
	// exactly; one masked subtraction yields the identical float64.
	mask1 := (uint32(1) << (up + 1)) - 1
	mask0 := (uint32(1) << up) - 1
	hb1 := int32(1) << up
	hb0 := int32(mask0+1) >> 1
	dd := e.distDelta
	ops := e.ops
	for s, y0 := 0, 0; y0 < h; s, y0 = s+1, y0+4 {
		sh := h - y0
		if sh > 4 {
			sh = 4
		}
		row := s * w
		fi0 := (y0+1)*fw + 1
		mi0 := y0 * w
		for x := 0; x < w; x++ {
			if e.stripeOR[row+x]>>(up+1) == 0 {
				continue // nothing significant before this plane
			}
			fi := fi0 + x
			mi := mi0 + x
			for k := 0; k < sh; k++ {
				m := mag[mi]
				if m>>(up+1) != 0 { // significant before this plane
					fv := f[fi]
					ops = append(ops, uint8(mrCtx(fv))<<1|uint8(m>>up&1))
					db := float64(int32(m&mask1) - hb1)
					var da float64
					if up == 0 {
						da = -0.5 // trunc_0(m) = m: the error is half a step
					} else {
						da = float64(int32(m&mask0) - hb0)
					}
					dd += float64((float64(db*db) - float64(da*da)) * gain2)
					if fv&fwRefined == 0 {
						f[fi] = fv | fwRefined
					}
				}
				fi += fw
				mi += w
			}
		}
	}
	// Each column contributes its stripe height whether skipped or not.
	e.scanned += w * h
	e.distDelta = dd
	e.ops = ops
}

// clnPass is the cleanup pass with run-length coding of all-quiet
// stripe columns. A column whose words carry no significance, no
// neighbor significance (hence no visit this plane — a visited
// coefficient always has a significant neighbor) is run-length
// eligible in one OR, and its run-length bit comes straight off the
// stripe magnitude mask without scanning the coefficients.
func (e *encoder) clnPass(p int) {
	w, h, fw := e.w, e.h, e.fw
	f, mag := e.flags, e.mag
	zc := &lutZC[e.zcTab]
	vp := visitStamp(p)
	bitp := uint32(1) << uint(p)
	up := uint(p)
	dd := e.distDelta
	ops := e.ops
	scanned := 0
	for s, y0 := 0, 0; y0 < h; s, y0 = s+1, y0+4 {
		sh := h - y0
		if sh > 4 {
			sh = 4
		}
		row := s * w
		fi0 := (y0+1)*fw + 1
		mi0 := y0 * w
		for x := 0; x < w; x++ {
			fi := fi0 + x
			mi := mi0 + x
			start := 0
			if sh == 4 {
				f0, f1, f2, f3 := f[fi], f[fi+fw], f[fi+2*fw], f[fi+3*fw]
				if f0&f1&f2&f3&fwSig != 0 {
					// All four already significant: cleanup codes nothing.
					scanned += 4
					continue
				}
				or := f0 | f1 | f2 | f3
				if or&(fwSig|fwSigNbr) == 0 {
					// Run-length mode: all four insignificant, unvisited,
					// context-free.
					scanned += 4
					if e.stripeOR[row+x]&bitp == 0 {
						ops = append(ops, ctxRL<<1|0)
						continue
					}
					runLen := 0
					for mag[mi]&bitp == 0 {
						runLen++
						fi += fw
						mi += w
					}
					ops = append(ops, ctxRL<<1|1,
						ctxUNI<<1|uint8(runLen>>1&1), ctxUNI<<1|uint8(runLen&1))
					// The coefficient at y0+runLen is significant; its
					// significance bit is implied, only the sign is coded.
					var d float64
					ops, d = e.codeSignificance(ops, fi, mi, p)
					dd += d
					fi += fw
					mi += w
					start = runLen + 1
				}
			}
			scanned += sh - start
			for k := start; k < sh; k++ {
				fv := f[fi]
				if fv&fwSig == 0 && fv&fwVisitMask != vp {
					bit := uint8(mag[mi] >> up & 1)
					ops = append(ops, (uint8(ctxZC)+zc[fv>>4&0xFF])<<1|bit)
					if bit == 1 {
						var d float64
						ops, d = e.codeSignificance(ops, fi, mi, p)
						dd += d
					}
				}
				fi += fw
				mi += w
			}
		}
	}
	e.scanned += scanned
	e.distDelta = dd
	e.ops = ops
}
