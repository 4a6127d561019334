package t1

import (
	"fmt"
	"testing"

	"j2kcell/internal/dwt"
	"j2kcell/internal/workload"
)

// The reference context modeling: a plain byte-flag array with no
// cached neighbor state, where every context is recomputed from eight
// scattered neighbor loads (the original Table D.1–D.4
// implementation). Two kinds of differential test drive it:
//
//   - luts_test.go puts this oracle and the production coder's state
//     through the same significance/refinement histories and asserts
//     that every context decision matches;
//   - oraclePasses below walks whole blocks pass by pass, with no skip
//     paths, and TestT1EncodeMatchesOracle requires the encoder to
//     emit the same (context, bit) sequence and the same scan and
//     decision counts in every pass.

const (
	oSig     uint8 = 1 << 0
	oVisit   uint8 = 1 << 1
	oRefined uint8 = 1 << 2
	oNeg     uint8 = 1 << 3
)

type oracleCoder struct {
	w, h   int
	orient dwt.Orient
	flags  []uint8 // (w+2) x (h+2), row-major with border
	fw     int
}

func newOracle(w, h int, orient dwt.Orient) *oracleCoder {
	return &oracleCoder{
		w: w, h: h, orient: orient,
		flags: make([]uint8, (w+2)*(h+2)),
		fw:    w + 2,
	}
}

func (c *oracleCoder) fidx(x, y int) int { return (y+1)*c.fw + (x + 1) }

// zcContext is the original zero-coding context computation (Table D.1).
func (c *oracleCoder) zcContext(fi int) int {
	f := c.flags
	h := int(f[fi-1]&oSig) + int(f[fi+1]&oSig)
	v := int(f[fi-c.fw]&oSig) + int(f[fi+c.fw]&oSig)
	d := int(f[fi-c.fw-1]&oSig) + int(f[fi-c.fw+1]&oSig) +
		int(f[fi+c.fw-1]&oSig) + int(f[fi+c.fw+1]&oSig)
	if c.orient == dwt.HL {
		h, v = v, h // HL band: swap the roles of H and V
	}
	if c.orient == dwt.HH {
		switch {
		case d >= 3:
			return 8
		case d == 2:
			if h+v >= 1 {
				return 7
			}
			return 6
		case d == 1:
			switch {
			case h+v >= 2:
				return 5
			case h+v == 1:
				return 4
			default:
				return 3
			}
		default:
			switch {
			case h+v >= 2:
				return 2
			case h+v == 1:
				return 1
			default:
				return 0
			}
		}
	}
	switch {
	case h == 2:
		return 8
	case h == 1:
		switch {
		case v >= 1:
			return 7
		case d >= 1:
			return 6
		default:
			return 5
		}
	default:
		switch {
		case v == 2:
			return 4
		case v == 1:
			return 3
		case d >= 2:
			return 2
		case d == 1:
			return 1
		default:
			return 0
		}
	}
}

// scContribution is the original clamped sign contribution of one
// neighbor.
func (c *oracleCoder) scContribution(fi int) int {
	f := c.flags[fi]
	if f&oSig == 0 {
		return 0
	}
	if f&oNeg != 0 {
		return -1
	}
	return 1
}

// scContext is the original sign-coding context computation (Table D.3).
func (c *oracleCoder) scContext(fi int) (ctx int, xor uint8) {
	h := c.scContribution(fi-1) + c.scContribution(fi+1)
	v := c.scContribution(fi-c.fw) + c.scContribution(fi+c.fw)
	clamp := func(x int) int {
		if x > 1 {
			return 1
		}
		if x < -1 {
			return -1
		}
		return x
	}
	h, v = clamp(h), clamp(v)
	switch {
	case h == 1:
		switch v {
		case 1:
			return ctxSC + 4, 0
		case 0:
			return ctxSC + 3, 0
		default:
			return ctxSC + 2, 0
		}
	case h == 0:
		switch v {
		case 1:
			return ctxSC + 1, 0
		case 0:
			return ctxSC, 0
		default:
			return ctxSC + 1, 1
		}
	default:
		switch v {
		case 1:
			return ctxSC + 2, 1
		case 0:
			return ctxSC + 3, 1
		default:
			return ctxSC + 4, 1
		}
	}
}

// mrContext is the original magnitude-refinement context (Table D.4).
func (c *oracleCoder) mrContext(fi int) int {
	f := c.flags
	if f[fi]&oRefined != 0 {
		return ctxMR + 2
	}
	any := f[fi-1] | f[fi+1] | f[fi-c.fw] | f[fi+c.fw] |
		f[fi-c.fw-1] | f[fi-c.fw+1] | f[fi+c.fw-1] | f[fi+c.fw+1]
	if any&oSig != 0 {
		return ctxMR + 1
	}
	return ctxMR
}

// oraclePass is one coding pass as the oracle walks it: the decisions
// it codes, packed ctx<<1 | bit like the encoder's ops buffer, and the
// samples it scans.
type oraclePass struct {
	t       PassType
	plane   int
	ops     []uint8
	scanned int
}

// oraclePasses walks the MQ coding passes of a w×h block (row stride
// w) straight from T.800 D.3, one sample at a time over byte flags.
// Nothing is skipped, so a skip path in the encoder that drops or adds
// a decision shows as a difference. The scan count follows the
// encoder's accounting: every sample of the pass's stripe columns,
// where a cleanup column that run-length codes a hit counts its four
// samples for the run-length decision and the samples after the hit
// again as they are coded.
func oraclePasses(coef []int32, w, h int, orient dwt.Orient, segSym bool) []oraclePass {
	o := newOracle(w, h, orient)
	mag := make([]uint32, w*h)
	numBPS := 0
	for i, v := range coef[:w*h] {
		m := uint32(v)
		if v < 0 {
			m = uint32(-int64(v))
			o.flags[o.fidx(i%w, i/w)] |= oNeg
		}
		mag[i] = m
		for n := 0; n < 32; n++ {
			if m>>uint(n) != 0 && n+1 > numBPS {
				numBPS = n + 1
			}
		}
	}
	var passes []oraclePass
	var ops []uint8
	emit := func(ctx int, bit uint32) { ops = append(ops, uint8(ctx)<<1|uint8(bit)) }
	// codeSign codes the sign of a sample that just became significant.
	codeSign := func(fi int) {
		ctx, xor := o.scContext(fi)
		emit(ctx, uint32(o.flags[fi]>>3&1^xor))
		o.flags[fi] |= oSig
	}
	// stripes visits the samples in stripe order: four-row stripes top
	// down, columns left to right, rows top down within a column.
	stripes := func(f func(x, y int)) {
		for y0 := 0; y0 < h; y0 += 4 {
			for x := 0; x < w; x++ {
				for y := y0; y < y0+4 && y < h; y++ {
					f(x, y)
				}
			}
		}
	}
	for p := numBPS - 1; p >= 0; p-- {
		bit := func(x, y int) uint32 { return mag[y*w+x] >> uint(p) & 1 }
		if p != numBPS-1 {
			ops = nil
			stripes(func(x, y int) {
				fi := o.fidx(x, y)
				if o.flags[fi]&oSig != 0 {
					return
				}
				ctx := o.zcContext(fi)
				if ctx == 0 {
					return
				}
				emit(ctxZC+ctx, bit(x, y))
				if bit(x, y) == 1 {
					codeSign(fi)
				}
				o.flags[fi] |= oVisit
			})
			passes = append(passes, oraclePass{PassSig, p, ops, w * h})

			ops = nil
			stripes(func(x, y int) {
				fi := o.fidx(x, y)
				if o.flags[fi]&oSig == 0 || o.flags[fi]&oVisit != 0 {
					return
				}
				emit(o.mrContext(fi), bit(x, y))
				o.flags[fi] |= oRefined
			})
			passes = append(passes, oraclePass{PassRef, p, ops, w * h})
		}

		ops = nil
		scanned := 0
		for y0 := 0; y0 < h; y0 += 4 {
			sh := min(4, h-y0)
			for x := 0; x < w; x++ {
				k := 0
				runLength := sh == 4
				for y := y0; y < y0+sh; y++ {
					fi := o.fidx(x, y)
					if o.flags[fi]&(oSig|oVisit) != 0 || o.zcContext(fi) != 0 {
						runLength = false
					}
				}
				if runLength {
					scanned += 4
					r := 0
					for r < 4 && bit(x, y0+r) == 0 {
						r++
					}
					if r == 4 {
						emit(ctxRL, 0)
						continue
					}
					emit(ctxRL, 1)
					emit(ctxUNI, uint32(r>>1&1))
					emit(ctxUNI, uint32(r&1))
					codeSign(o.fidx(x, y0+r))
					k = r + 1
				}
				scanned += sh - k
				for ; k < sh; k++ {
					fi := o.fidx(x, y0+k)
					if o.flags[fi]&(oSig|oVisit) != 0 {
						continue
					}
					emit(ctxZC+o.zcContext(fi), bit(x, y0+k))
					if bit(x, y0+k) == 1 {
						codeSign(fi)
					}
				}
			}
		}
		for i := range o.flags {
			o.flags[i] &^= oVisit
		}
		if segSym {
			emit(ctxUNI, 1)
			emit(ctxUNI, 0)
			emit(ctxUNI, 1)
			emit(ctxUNI, 0)
		}
		passes = append(passes, oraclePass{PassCln, p, ops, scanned})
	}
	return passes
}

// encodeOracleDiff encodes a block and compares every pass with the
// oracle's walk: type, plane, decisions, and the Scanned and Coded
// counters. It returns "" when they agree, else the first difference.
func encodeOracleDiff(coef []int32, w, h int, orient dwt.Orient, mode Mode) string {
	var got []oraclePass
	blk := encodeMQ(coef, w, h, w, orient, mode, 1.0, func(t PassType, plane int, ops []uint8) {
		got = append(got, oraclePass{t: t, plane: plane, ops: append([]uint8(nil), ops...)})
	})
	want := oraclePasses(coef, w, h, orient, mode.SegSym())
	if len(got) != len(want) || len(blk.Passes) != len(want) {
		return fmt.Sprintf("%d traced and %d recorded passes, oracle %d", len(got), len(blk.Passes), len(want))
	}
	for i, wp := range want {
		g, bp := got[i], blk.Passes[i]
		if g.t != wp.t || g.plane != wp.plane || bp.Type != wp.t || int(bp.Plane) != wp.plane {
			return fmt.Sprintf("pass %d is %v at plane %d, oracle %v at plane %d", i, g.t, g.plane, wp.t, wp.plane)
		}
		for j := 0; j < len(g.ops) && j < len(wp.ops); j++ {
			if g.ops[j] != wp.ops[j] {
				return fmt.Sprintf("pass %d (%v, plane %d) decision %d: ctx %d bit %d, oracle ctx %d bit %d",
					i, wp.t, wp.plane, j, g.ops[j]>>1, g.ops[j]&1, wp.ops[j]>>1, wp.ops[j]&1)
			}
		}
		if len(g.ops) != len(wp.ops) {
			return fmt.Sprintf("pass %d (%v, plane %d): %d decisions, oracle %d", i, wp.t, wp.plane, len(g.ops), len(wp.ops))
		}
		if int(bp.Coded) != len(wp.ops) || int(bp.Scanned) != wp.scanned {
			return fmt.Sprintf("pass %d (%v, plane %d): Coded %d Scanned %d, oracle %d and %d",
				i, wp.t, wp.plane, bp.Coded, bp.Scanned, len(wp.ops), wp.scanned)
		}
	}
	return ""
}

// oracleModes are the MQ coding modes whose decisions differ or whose
// pass bookkeeping does: both termination styles, each with and
// without segmentation symbols.
var oracleModes = []Mode{ModeSingle, ModeTermAll, ModeSingle.WithSegSym(), ModeTermAll.WithSegSym()}

// TestT1EncodeMatchesOracle requires the encoder's decisions, pass by
// pass, to equal the oracle's on every orientation and mode, over
// block sizes from 1×1 to 64×64: odd sizes, 1×N and N×1 strips, and
// partial last stripes of every height, with dense, sparse and
// many-plane content.
func TestT1EncodeMatchesOracle(t *testing.T) {
	sizes := [][2]int{
		{1, 1}, {1, 64}, {64, 1}, {1, 5}, {6, 1}, {2, 3}, {3, 2}, {4, 4},
		{5, 7}, {7, 9}, {13, 17}, {16, 6}, {31, 33}, {32, 32}, {33, 31},
		{47, 5}, {5, 47}, {63, 61}, {64, 37}, {37, 64}, {64, 64},
	}
	rng := workload.NewRNG(101)
	for _, s := range sizes {
		w, h := s[0], s[1]
		contents := map[string][]int32{
			"dense":  randBlock(w, h, uint32(w*71+h), 400),
			"sparse": sparseBlock(w, h, uint32(w*13+h)),
			"planes": make([]int32, w*h),
		}
		for i := range contents["planes"] {
			v := int32(rng.Intn(1 << 18))
			v >>= uint(rng.Intn(19))
			if rng.Intn(2) == 1 {
				v = -v
			}
			contents["planes"][i] = v
		}
		for kind, coef := range contents {
			for _, o := range []dwt.Orient{dwt.LL, dwt.HL, dwt.LH, dwt.HH} {
				for _, mode := range oracleModes {
					if d := encodeOracleDiff(coef, w, h, o, mode); d != "" {
						t.Fatalf("%dx%d %s %v mode %#x: %s", w, h, kind, o, int(mode), d)
					}
				}
			}
		}
	}
}

// FuzzT1EncodeMatchesOracle is TestT1EncodeMatchesOracle on
// fuzzer-chosen blocks, orientations and modes.
func FuzzT1EncodeMatchesOracle(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(0), uint8(0), []byte{1, 2, 3, 4})
	f.Add(uint8(13), uint8(7), uint8(1), uint8(3), []byte{0xFF, 0x00, 0x80, 0x7F, 9})
	f.Add(uint8(32), uint8(32), uint8(3), uint8(2), []byte{0, 0, 0, 200, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(1), uint8(9), uint8(2), uint8(1), []byte{255, 255})
	f.Fuzz(func(t *testing.T, w8, h8, o8, m8 uint8, raw []byte) {
		w := int(w8)%64 + 1
		h := int(h8)%64 + 1
		orient := dwt.Orient(o8 % 4)
		mode := oracleModes[m8%4]
		coef := make([]int32, w*h)
		for i := range coef {
			if len(raw) == 0 {
				break
			}
			b := raw[i%len(raw)]
			v := int32(b) << (uint(i) % 6)
			if b&1 == 1 {
				v = -v
			}
			coef[i] = v
		}
		if d := encodeOracleDiff(coef, w, h, orient, mode); d != "" {
			t.Fatalf("%dx%d %v mode %#x: %s", w, h, orient, int(mode), d)
		}
	})
}
