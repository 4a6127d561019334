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
	c := newCoder(w, h, orient)
	defer c.release()
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
		simd.SignOrRow(c.flags[c.fidx(0, y):c.fidx(0, y)+w], coefRow, fwNeg)
		for _, m := range magRow {
			dist0 += float64(m) * float64(m) * gain2
		}
	}
	numBPS := oracleBitLen(orAll)
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
		Type: PassCln, Plane: pCup, CumLen: len(out), SegLen: len(out),
		DistDelta: dd, Scanned: w * h, Coded: nSig,
	})

	if pCup == 1 {
		dd, coded := e.sigProp(c, w, h, gain2)
		e.refine.flush()
		seg := len(e.refine.buf)
		out = append(out, e.refine.buf...)
		blk.Passes = append(blk.Passes, Pass{
			Type: PassSig, Plane: 0, CumLen: len(out), SegLen: seg,
			DistDelta: dd, Scanned: w * h, Coded: coded,
		})
		e.refine = oracleWriter{}
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

func (e *oracleHT) cleanup(c *coder, w, h, pCup int, gain2 float64, track bool) (nSig int, dd float64) {
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
					neg := flags[fj]&fwNeg != 0
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

func (e *oracleHT) sigProp(c *coder, w, h int, gain2 float64) (dd float64, coded int) {
	f, mag, fw := c.flags, c.mag, c.fw
	wr := &e.refine
	for y := 0; y < h; y++ {
		fi := (y+1)*fw + 1
		mi := y * w
		for x := 0; x < w; x++ {
			fv := f[fi]
			if fv&fwSig == 0 && fv&fwSigNbr != 0 {
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
					dd += gain2
				}
			}
			fi++
			mi++
		}
	}
	return dd, coded
}

func (e *oracleHT) magRef(c *coder, w, h int, gain2 float64) (dd float64, coded int) {
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
	case math.Float64bits(got.Dist0) != math.Float64bits(want.Dist0):
		return fmt.Sprintf("Dist0 %v, want %v", got.Dist0, want.Dist0)
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

// TestHTEncodeMatchesOracle pins the packed HT encoder to the per-bit
// oracle across orientation, geometry (including blocks wider or taller
// than 64), content statistics and both HT modes.
func TestHTEncodeMatchesOracle(t *testing.T) {
	sizes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {3, 5}, {33, 17}, {64, 37}, {64, 64}, {128, 32}, {256, 16}}
	contents := map[string]func(w, h int, seed uint32) []int32{
		"dense":    func(w, h int, seed uint32) []int32 { return randBlock(w, h, seed, 400) },
		"sparse":   sparseBlock,
		"stuffing": stuffingBlock,
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
						t.Fatalf("%v %dx%d %s mode %d: %s", o, w, h, name, mode, d)
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
