package t1

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"j2kcell/internal/dwt"
	"j2kcell/internal/simd"
	"j2kcell/internal/workload"
)

// The per-bit HT block encoder, kept as a reference oracle: one writer
// call per sign bit, magnitude field, prefix-code fragment and raw
// refinement bit, with the hand-rolled bit-length loop. The production
// encoder (ht_encode.go, ht_stream.go) packs fields and words instead;
// TestHTEncodeMatchesOracle and FuzzHTEncodeMatchesOracle require the
// two to return identical blocks — every byte, every pass field and
// every distortion value bit for bit.

// oracleHTState is the HT oracles' sample state: the byte flags of
// the MQ context oracle (oracle_test.go) and the magnitudes.
type oracleHTState struct {
	*oracleCoder
	mag []uint32
}

func newOracleHTState(w, h int, orient dwt.Orient) *oracleHTState {
	return &oracleHTState{newOracle(w, h, orient), make([]uint32, w*h)}
}

// setSig marks the sample at flags index fi significant, with its sign.
func (c *oracleHTState) setSig(fi int, neg bool) {
	c.flags[fi] |= oSig
	if neg {
		c.flags[fi] |= oNeg
	}
}

// sigNbr reports whether any of the 8 neighbors of flags index fi is
// significant.
func (c *oracleHTState) sigNbr(fi int) bool {
	f, fw := c.flags, c.fw
	any := f[fi-1] | f[fi+1] | f[fi-fw] | f[fi+fw] |
		f[fi-fw-1] | f[fi-fw+1] | f[fi+fw-1] | f[fi+fw+1]
	return any&oSig != 0
}

// oracleWriter is the per-bit htWriter: LSB-first packing, a byte after
// an emitted 0xFF carries 7 payload bits.
type oracleWriter struct {
	buf  []byte
	acc  uint64
	n    uint
	last byte
}

func (w *oracleWriter) put(v uint32, nb uint) {
	w.acc |= uint64(v) << w.n
	w.n += nb
	for {
		if w.last == 0xFF {
			if w.n < 7 {
				return
			}
			b := byte(w.acc) & 0x7F
			w.acc >>= 7
			w.n -= 7
			w.buf = append(w.buf, b)
			w.last = b
		} else {
			if w.n < 8 {
				return
			}
			b := byte(w.acc)
			w.acc >>= 8
			w.n -= 8
			w.buf = append(w.buf, b)
			w.last = b
		}
	}
}

func (w *oracleWriter) flush() {
	for w.n > 0 {
		var b byte
		if w.last == 0xFF {
			b = byte(w.acc) & 0x7F
			w.acc >>= 7
			if w.n > 7 {
				w.n -= 7
			} else {
				w.n = 0
			}
		} else {
			b = byte(w.acc)
			w.acc >>= 8
			if w.n > 8 {
				w.n -= 8
			} else {
				w.n = 0
			}
		}
		w.buf = append(w.buf, b)
		w.last = b
	}
}

type oracleMEL struct {
	w   oracleWriter
	k   int
	run uint32
}

func (m *oracleMEL) encode(bit int) {
	if bit == 0 {
		m.run++
		if m.run == 1<<melExponent[m.k] {
			m.w.put(1, 1)
			m.run = 0
			if m.k < 12 {
				m.k++
			}
		}
		return
	}
	e := melExponent[m.k]
	m.w.put(0, 1)
	if e > 0 {
		m.w.put(m.run, e)
	}
	m.run = 0
	if m.k > 0 {
		m.k--
	}
}

func (m *oracleMEL) encodeZeros(n int) {
	for n > 0 {
		need := int(uint32(1)<<melExponent[m.k] - m.run)
		if n < need {
			m.run += uint32(n)
			return
		}
		n -= need
		m.w.put(1, 1)
		m.run = 0
		if m.k < 12 {
			m.k++
		}
	}
}

func (m *oracleMEL) flush() {
	if m.run > 0 {
		m.w.put(1, 1)
	}
	m.w.flush()
}

func oraclePutUExp(w *oracleWriter, u int) {
	switch {
	case u == 0:
		w.put(0, 1)
	case u == 1:
		w.put(1, 2)
	case u <= 5:
		w.put(3, 3)
		w.put(uint32(u-2), 2)
	default:
		w.put(7, 3)
		w.put(uint32(u-6), 5)
	}
}

func oracleBitLen(v uint32) int {
	n := 0
	for v != 0 {
		v >>= 1
		n++
	}
	return n
}

type oracleHT struct {
	magsgn, vlc, refine oracleWriter
	mel                 oracleMEL
	prevRho             []uint8
	rowOR               []uint32
}

// oracleEncodeHT is encodeHT with the per-bit emitters.
func oracleEncodeHT(coef []int32, w, h, stride int, orient dwt.Orient, mode Mode, gain float64) *Block {
	c := newOracleHTState(w, h, orient)
	e := &oracleHT{rowOR: make([]uint32, (h+1)/2)}

	gain2 := gain * gain
	orAll := uint32(0)
	dist0 := 0.0
	for y := 0; y < h; y++ {
		coefRow := coef[y*stride : y*stride+w]
		magRow := c.mag[y*w : y*w+w]
		ror := simd.AbsOrRow(magRow, coefRow)
		orAll |= ror
		e.rowOR[y>>1] |= ror
		for x, v := range coefRow {
			if v < 0 {
				c.flags[c.fidx(x, y)] |= oNeg
			}
		}
		for _, m := range magRow {
			dist0 += float64(float64(m) * float64(m) * gain2)
		}
	}
	numBPS := oracleBitLen(orAll)
	blk := &Block{W: w, H: h, Orient: orient, NumBPS: numBPS, Mode: mode}
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
		dd = dist0
	}

	e.magsgn.flush()
	e.mel.flush()
	e.vlc.flush()
	lenMEL, lenVLC := len(e.mel.w.buf), len(e.vlc.buf)
	var out []byte
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
		dd, coded := e.sigProp(c, w, h, gain2)
		e.refine.flush()
		seg := len(e.refine.buf)
		out = append(out, e.refine.buf...)
		blk.Passes = append(blk.Passes, Pass{
			Type: PassSig, Plane: 0, CumLen: len(out), SegLen: int32(seg),
			DistDelta: dd, Scanned: int32(w * h), Coded: int32(coded),
		})
		e.refine = oracleWriter{}
		dd, coded = e.magRef(c, w, h, gain2)
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

func (e *oracleHT) cleanup(c *oracleHTState, w, h, pCup int, gain2 float64, track bool) (nSig int, dd float64) {
	nqx := (w + 1) / 2
	nqy := (h + 1) / 2
	e.prevRho = make([]uint8, nqx)
	up := uint(pCup)
	mag, flags, fw := c.mag, c.flags, c.fw
	prevZero := true
	for qy := 0; qy < nqy; qy++ {
		y0 := qy * 2
		if prevZero && e.rowOR[qy]>>up == 0 {
			e.mel.encodeZeros(nqx)
			continue
		}
		tall := y0+1 < h
		left := uint8(0)
		rowZero := true
		for qx := 0; qx < nqx; qx++ {
			x0 := qx * 2
			mi := y0*w + x0
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
			if left|e.prevRho[qx] == 0 {
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
					if bl := oracleBitLen(vv); bl > umax {
						umax = bl
					}
				}
				oraclePutUExp(&e.vlc, umax-1)
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
					neg := flags[fj]&oNeg != 0
					s := uint32(0)
					if neg {
						s = 1
					}
					e.magsgn.put(s, 1)
					e.magsgn.put(v[i]-1, ub)
					nSig++
					if track {
						m := mag[mj]
						errA := 0.0
						if pCup == 1 && m&1 == 0 {
							errA = 1
						}
						dd += float64((float64(float64(m)*float64(m)) - errA) * gain2)
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

func (e *oracleHT) sigProp(c *oracleHTState, w, h int, gain2 float64) (dd float64, coded int) {
	f, mag, fw := c.flags, c.mag, c.fw
	wr := &e.refine
	for y := 0; y < h; y++ {
		fi := (y+1)*fw + 1
		mi := y * w
		for x := 0; x < w; x++ {
			fv := f[fi]
			if fv&oSig == 0 && c.sigNbr(fi) {
				bit := mag[mi]
				wr.put(bit, 1)
				coded++
				if bit != 0 {
					neg := fv&oNeg != 0
					s := uint32(0)
					if neg {
						s = 1
					}
					wr.put(s, 1)
					coded++
					c.setSig(fi, neg)
					dd += gain2
				}
			}
			fi++
			mi++
		}
	}
	return dd, coded
}

func (e *oracleHT) magRef(c *oracleHTState, w, h int, gain2 float64) (dd float64, coded int) {
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

// sameBlock reports the first difference between two encodes, or "".
// Distortions compare by bit pattern: PCRD consumes them, so float
// accumulation order is part of the codestream contract.
func sameBlock(got, want *Block) string {
	switch {
	case got.W != want.W || got.H != want.H || got.Orient != want.Orient || got.Mode != want.Mode:
		return fmt.Sprintf("geometry %dx%d/%v/%d, want %dx%d/%v/%d", got.W, got.H, got.Orient, got.Mode, want.W, want.H, want.Orient, want.Mode)
	case got.NumBPS != want.NumBPS:
		return fmt.Sprintf("NumBPS %d, want %d", got.NumBPS, want.NumBPS)
	case got.Renorms != want.Renorms:
		return fmt.Sprintf("Renorms %d, want %d", got.Renorms, want.Renorms)
	case !bytes.Equal(got.Data, want.Data):
		return fmt.Sprintf("Data differs (%d vs %d bytes)", len(got.Data), len(want.Data))
	case len(got.Passes) != len(want.Passes):
		return fmt.Sprintf("%d passes, want %d", len(got.Passes), len(want.Passes))
	}
	for i, p := range got.Passes {
		q := want.Passes[i]
		if p.Type != q.Type || p.Plane != q.Plane || p.CumLen != q.CumLen || p.SegLen != q.SegLen ||
			p.Scanned != q.Scanned || p.Coded != q.Coded ||
			math.Float64bits(p.DistDelta) != math.Float64bits(q.DistDelta) {
			return fmt.Sprintf("pass %d: %+v, want %+v", i, p, q)
		}
	}
	return ""
}

// stuffingBlock drives long 0xFF runs through every stream: all-ones
// magnitude fields (v−1 = 2^k−2 ones above a zero, signs negative), so
// the 7-bit stuffed bytes follow 0xFF again and again.
func stuffingBlock(w, h int, seed uint32) []int32 {
	rng := workload.NewRNG(seed)
	out := make([]int32, w*h)
	for i := range out {
		k := 2 + rng.Intn(14)
		v := int32(1)<<k - 1
		if rng.Intn(8) != 0 {
			v = -v
		}
		out[i] = v
	}
	return out
}

// clusteredBlock is zero outside a few small rectangles of non-zero
// samples (a magnitude 1 among them, for SigProp), so the cleanup
// meets long runs of empty quads inside quad rows that are not empty,
// on either side of word boundaries.
func clusteredBlock(w, h int, seed uint32) []int32 {
	rng := workload.NewRNG(seed)
	out := make([]int32, w*h)
	for range 1 + rng.Intn(4) {
		x0, y0 := rng.Intn(w), rng.Intn(h)
		x1, y1 := min(w, x0+1+rng.Intn(5)), min(h, y0+1+rng.Intn(3))
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				v := int32(1 + rng.Intn(300))
				if rng.Intn(4) == 0 {
					v = 1
				}
				if rng.Intn(2) == 0 {
					v = -v
				}
				out[y*w+x] = v
			}
		}
	}
	return out
}

// TestHTEncodeMatchesOracle pins the packed HT encoder to the per-bit
// oracle under the build's kernel set, across orientation, geometry
// (including blocks wider or taller than 64 and odd sizes), content
// statistics and both HT modes.
func TestHTEncodeMatchesOracle(t *testing.T) {
	sizes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {3, 5}, {33, 17}, {64, 37}, {64, 64}, {65, 9}, {97, 71}, {128, 32}, {255, 6}, {256, 16}}
	contents := map[string]func(w, h int, seed uint32) []int32{
		"dense":     func(w, h int, seed uint32) []int32 { return randBlock(w, h, seed, 400) },
		"sparse":    sparseBlock,
		"stuffing":  stuffingBlock,
		"clustered": clusteredBlock,
		// One and two magnitude planes: the refine mode's pCup edge
		// (NumBPS 1 codes cleanup at plane 0, NumBPS 2 at plane 1).
		"bps1": func(w, h int, seed uint32) []int32 { return randBlock(w, h, seed, 1) },
		"bps2": func(w, h int, seed uint32) []int32 { return randBlock(w, h, seed, 3) },
		// Magnitudes up to 2^31: 32 planes, a 33-bit MagSgn field.
		"extreme": func(w, h int, seed uint32) []int32 {
			out := randBlock(w, h, seed, 5)
			for i := range out {
				switch i % 4 {
				case 0:
					out[i] = math.MinInt32
				case 1:
					out[i] = math.MaxInt32
				}
			}
			return out
		},
	}
	ks := simd.Kernel()
	seed := uint32(1)
	for _, o := range []dwt.Orient{dwt.LL, dwt.HL, dwt.LH, dwt.HH} {
		for _, sz := range sizes {
			w, h := sz[0], sz[1]
			for name, gen := range contents {
				seed++
				coef := gen(w, h, seed)
				for _, mode := range []Mode{ModeHT, ModeHTRefine} {
					got := Encode(coef, w, h, w, o, mode, 1.37)
					want := oracleEncodeHT(coef, w, h, w, o, mode, 1.37)
					if d := sameBlock(got, want); d != "" {
						t.Fatalf("%s: %v %dx%d %s mode %d: %s", ks, o, w, h, name, mode, d)
					}
				}
			}
		}
	}
	// The generators must actually reach the stuffing path and the pCup
	// edge.
	if b := Encode(stuffingBlock(64, 64, 3), 64, 64, 64, dwt.LL, ModeHT, 1); bytes.Count(b.Data, []byte{0xFF}) < len(b.Data)/16 {
		t.Fatalf("stuffing content: %d 0xFF bytes in %d", bytes.Count(b.Data, []byte{0xFF}), len(b.Data))
	}
	for _, c := range []struct {
		amp  int32
		want int
	}{{1, 1}, {3, 2}} {
		if b := Encode(randBlock(8, 8, 5, c.amp), 8, 8, 8, dwt.LL, ModeHTRefine, 1); b.NumBPS != c.want {
			t.Fatalf("amplitude %d: NumBPS %d, want %d", c.amp, b.NumBPS, c.want)
		}
	}
}

// FuzzHTEncodeMatchesOracle extends TestHTEncodeMatchesOracle to
// fuzzer-chosen blocks, strides and gains.
func FuzzHTEncodeMatchesOracle(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint8(0), uint8(0), uint8(3), []byte{1, 2, 3, 4})
	f.Add(uint8(7), uint8(33), uint8(2), uint8(1), uint8(0), []byte{0xFF, 0xFF, 0x80, 0})
	f.Add(uint8(64), uint8(64), uint8(3), uint8(1), uint8(9), []byte{0xFF, 0xFE, 0xFF, 0x7F})
	// Clustered: raw covers the whole block (pad%5 == 0, so the stride
	// is w), zero outside a few small rectangles.
	for i, sz := range [][2]int{{100, 40}, {129, 9}, {64, 64}, {37, 69}} {
		w, h := sz[0], sz[1]
		coef := clusteredBlock(w, h, uint32(i+7))
		raw := make([]byte, w*h)
		for j, v := range coef {
			if v != 0 {
				raw[j] = byte(v) | 2
			}
		}
		f.Add(uint8(w-1), uint8(h-1), uint8(i), uint8(i), uint8(0), raw)
	}
	f.Fuzz(func(t *testing.T, w8, h8, o8, m8, pad uint8, raw []byte) {
		w, h := int(w8)%130+1, int(h8)%70+1
		stride := w + int(pad)%5
		orient := dwt.Orient(o8 % 4)
		mode := ModeHT
		if m8%2 == 1 {
			mode = ModeHTRefine
		}
		coef := make([]int32, stride*h)
		for i := range coef {
			if len(raw) == 0 {
				break
			}
			b := raw[i%len(raw)]
			v := int32(b) << (uint(i) % 12)
			if b&1 == 1 {
				v = -v
			}
			coef[i] = v
		}
		gain := 0.5 + float64(m8>>1)/7
		got := Encode(coef, w, h, stride, orient, mode, gain)
		want := oracleEncodeHT(coef, w, h, stride, orient, mode, gain)
		if d := sameBlock(got, want); d != "" {
			t.Fatalf("%v %dx%d stride %d mode %d: %s", orient, w, h, stride, mode, d)
		}
	})
}

// The per-bit HT block decoder, kept as a reference oracle: a reader
// that refills one byte at a time, one get per sign bit, magnitude
// field, prefix-code fragment and raw refinement bit, and significance
// tracked in byte flags. The production decoder
// (ht_decode.go, ht_stream.go) refills by words, reads packed fields
// and tracks significance in per-row bit sets; TestHTDecodeMatchesOracle
// and FuzzHTDecodeMatchesOracle require the two to write identical
// coefficients and to agree on whether a block is rejected.

// oracleReader is the byte-at-a-time htReader. Reads past the end
// return zero bits and set overrun.
type oracleReader struct {
	data    []byte
	pos     int
	acc     uint64
	n       uint
	last    byte
	overrun bool
}

func (r *oracleReader) get(nb uint) uint32 {
	for r.n < nb {
		var b byte
		if r.pos < len(r.data) {
			b = r.data[r.pos]
			r.pos++
		} else {
			r.overrun = true
		}
		if r.last == 0xFF {
			r.acc |= uint64(b&0x7F) << r.n
			r.n += 7
		} else {
			r.acc |= uint64(b) << r.n
			r.n += 8
		}
		r.last = b
	}
	v := uint32(r.acc & (1<<nb - 1))
	r.acc >>= nb
	r.n -= nb
	return v
}

type oracleMELDecoder struct {
	r    oracleReader
	k    int
	runs uint32
	one  bool
}

func (m *oracleMELDecoder) decode() int {
	if m.runs > 0 {
		m.runs--
		return 0
	}
	if m.one {
		m.one = false
		return 1
	}
	if m.r.get(1) == 1 {
		m.runs = 1 << melExponent[m.k]
		if m.k < 12 {
			m.k++
		}
		m.runs--
		return 0
	}
	e := melExponent[m.k]
	var r uint32
	if e > 0 {
		r = m.r.get(e)
	}
	if m.k > 0 {
		m.k--
	}
	if r > 0 {
		m.runs = r - 1
		m.one = true
		return 0
	}
	return 1
}

func oracleGetUExp(r *oracleReader) int {
	if r.get(1) == 0 {
		return 0
	}
	if r.get(1) == 0 {
		return 1
	}
	if r.get(1) == 0 {
		return 2 + int(r.get(2))
	}
	return 6 + int(r.get(5))
}

// oracleDecodeHT is decodeHT with the per-bit reader and flag words.
func oracleDecodeHT(coef []int32, w, h, stride int, orient dwt.Orient, numBPS, numPasses int, data []byte, segLens []int) error {
	for y := 0; y < h; y++ {
		clear(coef[y*stride : y*stride+w])
	}
	if numBPS == 0 || numPasses == 0 {
		return nil
	}
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
	var mel oracleMELDecoder
	var ms, vlc oracleReader
	ms.data = cup[:body-lenMEL-lenVLC]
	mel.r.data = cup[body-lenMEL-lenVLC : body-lenVLC]
	vlc.data = cup[body-lenVLC : body]

	c := newOracleHTState(w, h, orient)
	lp := make([]int8, w*h)
	prevRho := make([]int8, (w+1)/2)

	nqx := (w + 1) / 2
	nqy := (h + 1) / 2
	up := uint(pCup)
	maxU := numBPS - pCup
	if maxU > 31-pCup {
		maxU = 31 - pCup
	}
	mag, flags, fw := c.mag, c.flags, c.fw
	for qy := 0; qy < nqy; qy++ {
		y0 := qy * 2
		tall := y0+1 < h
		left := int8(0)
		for qx := 0; qx < nqx; qx++ {
			x0 := qx * 2
			var rho uint32
			if left|prevRho[qx] == 0 {
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
			if rho != 0 {
				if (!tall && rho&0xA != 0) || (x0+1 >= w && rho&0xC != 0) {
					return fmt.Errorf("t1: HT significance pattern addresses samples outside the block")
				}
				u := oracleGetUExp(&vlc) + 1
				if u > maxU {
					return fmt.Errorf("t1: HT magnitude exponent %d exceeds %d coded planes", u, maxU)
				}
				ub := uint(u)
				mi := y0*w + x0
				fi := (y0+1)*fw + x0 + 1
				for i := 0; i < 4; i++ {
					if rho&(1<<i) == 0 {
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
					neg := ms.get(1) == 1
					v := ms.get(ub) + 1
					mag[mj] = v << up
					lp[mj] = int8(pCup)
					if neg {
						flags[fj] |= oNeg
					}
					c.setSig(fj, neg)
				}
			}
			prevRho[qx] = int8(rho)
			left = int8(rho)
		}
	}
	if ms.overrun || mel.r.overrun || vlc.overrun {
		return fmt.Errorf("t1: HT cleanup streams shorter than the coding process requires")
	}

	if numPasses >= 2 {
		if pCup != 1 {
			return fmt.Errorf("t1: HT refinement passes after a plane-0 cleanup")
		}
		r := oracleReader{data: segs[1]}
		for y := 0; y < h; y++ {
			fi := (y+1)*fw + 1
			mi := y * w
			for x := 0; x < w; x++ {
				fv := flags[fi]
				if fv&oSig == 0 && c.sigNbr(fi) {
					if r.get(1) == 1 {
						neg := r.get(1) == 1
						if neg {
							flags[fi] |= oNeg
						}
						c.setSig(fi, neg)
						mag[mi] = 1
						lp[mi] = 0
					}
				}
				fi++
				mi++
			}
		}
		if r.overrun {
			return fmt.Errorf("t1: HT SigProp segment shorter than its membership requires")
		}
	}
	if numPasses >= 3 {
		r := oracleReader{data: segs[2]}
		for i := 0; i < w*h; i++ {
			if mag[i]>>1 != 0 {
				mag[i] |= r.get(1)
				lp[i] = 0
			}
		}
		if r.overrun {
			return fmt.Errorf("t1: HT MagRef segment shorter than its membership requires")
		}
	}

	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			m := mag[i]
			if m == 0 {
				continue
			}
			if l := lp[i]; l > 0 {
				m += 1 << uint(l-1)
			}
			v := int32(m)
			if flags[c.fidx(x, y)]&oNeg != 0 {
				v = -v
			}
			coef[y*stride+x] = v
		}
	}
	return nil
}

// htDecodeCase decodes one block with both decoders into strided
// buffers pre-filled with the same garbage (so an unwritten sample or
// a write outside the block shows) and reports the first difference.
func htDecodeCase(w, h, numBPS, numPasses int, data []byte, segLens []int) string {
	stride := w + 3
	got := make([]int32, stride*h)
	want := make([]int32, stride*h)
	for i := range got {
		got[i] = int32(i*0x9E3779B1) | 1
		want[i] = got[i]
	}
	errGot := Decode(got, w, h, stride, dwt.HH, ModeHTRefine, numBPS, numPasses, data, segLens)
	errWant := oracleDecodeHT(want, w, h, stride, dwt.HH, numBPS, numPasses, data, segLens)
	if (errGot == nil) != (errWant == nil) {
		return fmt.Sprintf("error %v, oracle %v", errGot, errWant)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("coef[%d] (x=%d, y=%d) = %d, oracle %d (error %v)", i, i%stride, i/stride, got[i], want[i], errGot)
		}
	}
	return ""
}

// TestHTDecodeMatchesOracle pins the HT decoder to the per-bit oracle
// across orientation, geometry, the encode grid's content kinds, both
// HT modes and every pass prefix — on intact blocks, on blocks with
// their segments cut short, and on blocks with a damaged byte, so the
// trailer, MEL/VLC, exponent and overrun checks must reject exactly
// what the oracle rejects.
func TestHTDecodeMatchesOracle(t *testing.T) {
	sizes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 5}, {33, 17}, {63, 64}, {64, 37}, {64, 64}, {256, 16}}
	contents := map[string]func(w, h int, seed uint32) []int32{
		"dense":    func(w, h int, seed uint32) []int32 { return randBlock(w, h, seed, 400) },
		"sparse":   sparseBlock,
		"stuffing": stuffingBlock,
		"bps1":     func(w, h int, seed uint32) []int32 { return randBlock(w, h, seed, 1) },
		"bps2":     func(w, h int, seed uint32) []int32 { return randBlock(w, h, seed, 3) },
		"extreme": func(w, h int, seed uint32) []int32 {
			out := randBlock(w, h, seed, 5)
			for i := range out {
				switch i % 4 {
				case 0:
					out[i] = math.MinInt32
				case 1:
					out[i] = math.MaxInt32
				}
			}
			return out
		},
	}
	seed := uint32(1)
	for _, o := range []dwt.Orient{dwt.LL, dwt.HL, dwt.LH, dwt.HH} {
		for _, sz := range sizes {
			w, h := sz[0], sz[1]
			for name, gen := range contents {
				seed++
				coef := gen(w, h, seed)
				for _, mode := range []Mode{ModeHT, ModeHTRefine} {
					blk := Encode(coef, w, h, w, o, mode, 1)
					segLens := make([]int, len(blk.Passes))
					for i, p := range blk.Passes {
						segLens[i] = int(p.SegLen)
					}
					short := make([]int, len(segLens))
					for i, n := range segLens {
						short[i] = n * 2 / 3
					}
					flipped := append([]byte(nil), blk.Data...)
					if len(flipped) > 0 {
						flipped[int(seed)%len(flipped)] ^= 0x5A
					}
					for passes := 0; passes <= 3; passes++ {
						for _, v := range []struct {
							kind    string
							data    []byte
							segLens []int
						}{{"intact", blk.Data, segLens}, {"short", blk.Data, short}, {"flipped", flipped, segLens}} {
							if d := htDecodeCase(w, h, blk.NumBPS, passes, v.data, v.segLens); d != "" {
								t.Fatalf("%v %dx%d %s mode %d, %d passes, %s: %s", o, w, h, name, mode, passes, v.kind, d)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzHTDecodeMatchesOracle extends TestHTDecodeMatchesOracle to
// fuzzer-chosen block bytes, segment lengths, bit-plane counts and
// pass counts.
func FuzzHTDecodeMatchesOracle(f *testing.F) {
	for i, mode := range []Mode{ModeHT, ModeHTRefine, ModeHTRefine} {
		w, h := 16+i*9, 8+i*13
		blk := Encode(randBlock(w, h, uint32(i+1), 60), w, h, w, dwt.HL, mode, 1)
		var lens [3]uint16
		for j, p := range blk.Passes {
			lens[j] = uint16(p.SegLen)
		}
		f.Add(uint8(w), uint8(h), uint8(blk.NumBPS), uint8(len(blk.Passes)), lens[0], lens[1], lens[2], blk.Data)
	}
	f.Add(uint8(4), uint8(4), uint8(3), uint8(1), uint16(9), uint16(0), uint16(0), []byte{0xFF, 0xFF, 0xFF, 0x80, 0, 0, 0, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, w8, h8, bps8, np8 uint8, l0, l1, l2 uint16, data []byte) {
		w, h := int(w8)%130+1, int(h8)%70+1
		numBPS, numPasses := int(bps8)%40, int(np8)%5
		segLens := []int{int(l0), int(l1), int(l2)}[:min(numPasses, 3)]
		if d := htDecodeCase(w, h, numBPS, numPasses, data, segLens); d != "" {
			t.Fatalf("%dx%d numBPS %d passes %d segLens %v: %s", w, h, numBPS, numPasses, segLens, d)
		}
	})
}
