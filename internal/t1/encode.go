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
	// stripe column carry bit p" in one load, which lets the cleanup
	// pass emit the run-length bit for an all-quiet column without
	// scanning its coefficients.
	stripeOR []uint32

	// chi holds the block's signs in the χ bits of column words laid out
	// like the coder's state: the bits a sample's column word receives
	// when it becomes significant.
	chi []uint32

	// ops is the deferred MQ decision buffer for the current pass: each
	// entry packs ctx<<1 | d. The passes only decide what to code — the
	// decision sequence never depends on the arithmetic coder's interval
	// state — so runPass hands the whole pass to mq.EncodeBatch at once
	// and the MQ registers stay in locals for the entire pass.
	ops []uint8

	trace func(t PassType, plane int, ops []uint8) // see encodeMQ

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
	return encodeMQ(coef, w, h, stride, orient, mode, gain, nil)
}

// encodeMQ is Encode's MQ block coder. trace, when non-nil, is shown
// each pass's decisions (ctx<<1 | bit, the ops buffer) before they are
// arithmetic coded; the decision oracle in oracle_test.go compares
// them with its own pass walk.
func encodeMQ(coef []int32, w, h, stride int, orient dwt.Orient, mode Mode, gain float64, trace func(t PassType, plane int, ops []uint8)) *Block {
	// invariant: block geometry comes from PlanBlocks, which never emits
	// empty blocks; encode-side only (decode sizes are clamped to the band).
	if w <= 0 || h <= 0 {
		panic("t1: empty code block")
	}
	c := newCoder(w, h, orient)
	defer c.release()

	e := getEncoder()
	defer putEncoder(e)
	e.stripeOR = zeroed(e.stripeOR, (h+3)/4*w)
	e.chi = zeroed(e.chi, len(c.state))
	// A cleanup pass codes at most 10 bits per 4-high stripe column
	// (RL + two UNI + sign, then up to two bits for each remaining
	// coefficient), so 3·w·h bounds any pass's op count.
	if n := 3 * w * h; cap(e.ops) < n {
		e.ops = make([]uint8, 0, n)
	}

	// The load traversal runs row-kernels from the simd layer: magnitudes
	// plus a running OR (bits.Len32(OR) == bits.Len32(max), which is all numBPS
	// needs), the stripe OR masks and the signs.
	orAll := uint32(0)
	for y := 0; y < h; y++ {
		coefRow := coef[y*stride : y*stride+w]
		magRow := c.mag[y*w : y*w+w]
		orAll |= simd.AbsOrRow(magRow, coefRow)
		simd.OrRow(e.stripeOR[(y/4)*w:(y/4)*w+w], magRow)
		j, k := c.col(0, y)
		simd.SignOrRow(e.chi[j:j+w], coefRow, cwChi<<(3*k))
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
	e.trace = trace
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
	if e.trace != nil {
		e.trace(t, plane, e.ops)
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

// codeSignificance codes the sign of the sample at row k of column
// word j, with magnitude m, which just became significant at plane p.
// fv is word j as the pass holds it. It mirrors the significance into
// the neighboring words and returns the bits for word j and the
// distortion reduction. The caller accounts for the sign bit in its
// coded counter.
func (e *encoder) codeSignificance(ops []uint8, fv uint32, j int, k uint, m uint32, p int) ([]uint8, uint32, float64) {
	st := e.state
	sc := lutSC[scIndex(fv, st[j-1], st[j+1], k)]
	neg := e.chi[j] >> (3*k + 19) & 1
	ops = append(ops, (uint8(ctxSC)+sc&7)<<1|(uint8(neg)^sc>>3))
	return ops, e.setSig(j, k, neg), e.sigDistDelta(m, p)
}

// sigPass is the significance propagation pass: insignificant
// coefficients with a preferred (non-zero-context) neighborhood. The
// column word gives the set of such rows in a few shifts; a column
// without one is skipped on its word alone. A row that becomes
// significant can only add the row below it to the set.
func (e *encoder) sigPass(p int) {
	w, h := e.w, e.h
	st, mag := e.state, e.mag
	zc := &lutZC[e.zcTab]
	up := uint(p)
	dd := e.distDelta
	ops := e.ops
	for y0 := 0; y0 < h; y0 += 4 {
		rows := stripeRows(min(4, h-y0))
		j0, _ := e.col(0, y0)
		mi0 := y0 * w
		for x := 0; x < w; x++ {
			j := j0 + x
			fv := st[j]
			members := sigMembers(fv, rows)
			if members == 0 {
				continue
			}
			for ; members != 0; members &= members - 1 {
				k3 := uint(bits.TrailingZeros32(members)) - 4 // 3k for row k
				m := mag[mi0+x+int(k3/3)*w]
				bit := m >> up & 1
				ops = append(ops, (uint8(ctxZC)+zc[fv>>k3&0x1FF])<<1|uint8(bit))
				fv |= cwPi << k3
				if bit != 0 {
					var own uint32
					var d float64
					ops, own, d = e.codeSignificance(ops, fv, j, k3/3, m, p)
					fv |= own
					dd += d
					members |= cwSelf << 3 << k3 & rows &^ fv // the row below
				}
			}
			st[j] = fv
		}
	}
	// Each column contributes its stripe height whether skipped or not.
	e.scanned += w * h
	e.distDelta = dd
	e.ops = ops
}

// refPass is the magnitude refinement pass: coefficients significant
// before this plane, which are those significant and not visited by
// this plane's significance pass — one test on the column word finds
// whether a column has any.
func (e *encoder) refPass(p int) {
	w, h := e.w, e.h
	st, mag := e.state, e.mag
	gain2 := e.gain2
	up := uint(p)
	// The distortion deltas compare the reconstructions before and after
	// this bit: errB = m - (trunc_{p+1}(m) + 2^p) and errA = m -
	// (trunc_p(m) + half_p). Every term is an integer (or ±0.5 at p = 0)
	// far below 2^53, so the seed's float chain computed these errors
	// exactly; one masked subtraction yields the identical float64. At
	// p = 0 the masked term is 0 and half0 makes errA the half step
	// (trunc_0(m) = m).
	mask1 := (uint32(1) << (up + 1)) - 1
	mask0 := (uint32(1) << up) - 1
	hb1 := int32(1) << up
	hb0 := int32(mask0+1) >> 1
	half0 := 0.0
	if p == 0 {
		half0 = 0.5
	}
	delta := func(m uint32) float64 {
		db := float64(int32(m&mask1) - hb1)
		da := float64(int32(m&mask0)-hb0) - half0
		return float64((float64(db*db) - float64(da*da)) * gain2)
	}
	dd := e.distDelta
	ops := e.ops
	for y0 := 0; y0 < h; y0 += 4 {
		j0, _ := e.col(0, y0)
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
				m0, m1, m2, m3 := mag[mi], mag[mi+w], mag[mi+2*w], mag[mi+3*w]
				ops = append(ops,
					uint8(mrCtx(fv))<<1|uint8(m0>>up&1),
					uint8(mrCtx(fv>>3))<<1|uint8(m1>>up&1),
					uint8(mrCtx(fv>>6))<<1|uint8(m2>>up&1),
					uint8(mrCtx(fv>>9))<<1|uint8(m3>>up&1))
				dd += delta(m0)
				dd += delta(m1)
				dd += delta(m2)
				dd += delta(m3)
				st[j] = fv | cwMuAll
				continue
			}
			for ; members != 0; members &= members - 1 {
				k3 := uint(bits.TrailingZeros32(members)) - 4 // 3k for row k
				m := mag[mi+int(k3/3)*w]
				ops = append(ops, uint8(mrCtx(fv>>k3))<<1|uint8(m>>up&1))
				dd += delta(m)
				fv |= cwMu << k3
			}
			st[j] = fv
		}
	}
	// Each column contributes its stripe height whether skipped or not.
	e.scanned += w * h
	e.distDelta = dd
	e.ops = ops
}

// clnPass is the cleanup pass with run-length coding of all-quiet
// stripe columns. A full column whose window holds no significance
// (hence no visit this plane — a visited coefficient always has a
// significant neighbor) is run-length eligible, and its run-length bit
// comes straight off the stripe magnitude mask without scanning the
// coefficients. Otherwise the pass codes the rows neither significant
// nor visited (σ and π clear), found from the column word alone. It
// clears every column's π for the next plane.
func (e *encoder) clnPass(p int) {
	w, h := e.w, e.h
	st, mag, stripeOR := e.state, e.mag, e.stripeOR
	zc := &lutZC[e.zcTab]
	bitp := uint32(1) << uint(p)
	up := uint(p)
	dd := e.distDelta
	ops := e.ops
	scanned := 0
	for y0 := 0; y0 < h; y0 += 4 {
		sh := min(4, h-y0)
		rows := stripeRows(sh)
		row := y0 / 4 * w
		j0, _ := e.col(0, y0)
		mi0 := y0 * w
		for x := 0; x < w; x++ {
			j := j0 + x
			fv := st[j]
			members := rows &^ (fv | fv>>17) // σ and π clear
			if sh == 4 && fv&cwSigma == 0 {
				// Run-length mode: all four insignificant, unvisited,
				// context-free.
				scanned += 4
				if stripeOR[row+x]&bitp == 0 {
					ops = append(ops, ctxRL<<1|0)
					continue
				}
				k := uint(0)
				for mi := mi0 + x; mag[mi]&bitp == 0; mi += w {
					k++
				}
				ops = append(ops, ctxRL<<1|1,
					ctxUNI<<1|uint8(k>>1&1), ctxUNI<<1|uint8(k&1))
				// The coefficient at y0+k is significant; its significance
				// bit is implied, only the sign is coded. The rows after it
				// are coded as usual.
				var own uint32
				var d float64
				ops, own, d = e.codeSignificance(ops, fv, j, k, mag[mi0+x+int(k)*w], p)
				fv |= own
				dd += d
				members &= ^uint32(0) << (3*k + 7)
				scanned += 3 - int(k)
			} else {
				scanned += sh
			}
			for ; members != 0; members &= members - 1 {
				k3 := uint(bits.TrailingZeros32(members)) - 4 // 3k for row k
				m := mag[mi0+x+int(k3/3)*w]
				bit := m >> up & 1
				ops = append(ops, (uint8(ctxZC)+zc[fv>>k3&0x1FF])<<1|uint8(bit))
				if bit != 0 {
					var own uint32
					var d float64
					ops, own, d = e.codeSignificance(ops, fv, j, k3/3, m, p)
					fv |= own
					dd += d
				}
			}
			st[j] = fv &^ cwPiAll
		}
	}
	e.scanned += scanned
	e.distDelta = dd
	e.ops = ops
}
