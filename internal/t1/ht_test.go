package t1

import (
	"bytes"
	"testing"
	"testing/quick"

	"j2kcell/internal/dwt"
	"j2kcell/internal/workload"
)

// --- stream primitives -------------------------------------------------

// TestHTWriterReaderRoundTrip drives random put/get sequences through
// the stuffed bit packer, including long all-ones stretches that force
// 0xFF bytes and the 7-bit stuffing path.
func TestHTWriterReaderRoundTrip(t *testing.T) {
	rng := workload.NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		var w htWriter
		w.reset()
		type item struct {
			v  uint32
			nb uint
		}
		var items []item
		n := rng.Intn(200) + 1
		for i := 0; i < n; i++ {
			nb := uint(rng.Intn(32) + 1)
			var v uint32
			switch rng.Intn(3) {
			case 0:
				v = uint32(rng.Intn(1 << 16))
			case 1:
				v = 0xFFFFFFFF // force FF bytes and stuffing
			}
			v &= uint32(1)<<nb - 1
			items = append(items, item{v, nb})
			w.put(v, nb)
		}
		w.flush()
		var r htReader
		r.init(w.buf)
		for i, it := range items {
			if got := r.get(it.nb); got != it.v {
				t.Fatalf("trial %d item %d: get(%d) = %#x, want %#x", trial, i, it.nb, got, it.v)
			}
		}
		// Stuffing invariant: no 0xFF may be followed by a byte >= 0x80.
		for i := 0; i+1 < len(w.buf); i++ {
			if w.buf[i] == 0xFF && w.buf[i+1] >= 0x80 {
				t.Fatalf("trial %d: stuffing violated at byte %d: FF %02X", trial, i, w.buf[i+1])
			}
		}
	}
}

// TestHTReaderPastEnd pins the degrade-to-zeros contract for truncated
// streams.
func TestHTReaderPastEnd(t *testing.T) {
	var r htReader
	r.init([]byte{0xAB})
	r.get(8)
	for i := 0; i < 100; i++ {
		if got := r.get(17); got != 0 {
			t.Fatalf("read past end returned %#x, want 0", got)
		}
	}
}

// TestMELRoundTrip runs random event sequences through the MEL coder,
// with zero-heavy distributions so the adaptive run states climb.
func TestMELRoundTrip(t *testing.T) {
	rng := workload.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		var enc melEncoder
		enc.reset()
		n := rng.Intn(500) + 1
		bits := make([]int, n)
		denom := rng.Intn(30) + 2 // P(1) from 1/2 down to 1/31
		for i := range bits {
			if rng.Intn(denom) == 0 {
				bits[i] = 1
			}
			enc.encode(bits[i])
		}
		enc.flush()
		var dec melDecoder
		dec.init(enc.w.buf)
		for i, want := range bits {
			if got := dec.decode(); got != want {
				t.Fatalf("trial %d event %d: decoded %d, want %d", trial, i, got, want)
			}
		}
	}
}

// TestMELEncodeZerosEquivalence pins the batched fast path against the
// event-at-a-time reference: byte-identical output is what lets the
// encoder skip all-quiet quad rows without a decoder-visible effect.
func TestMELEncodeZerosEquivalence(t *testing.T) {
	rng := workload.NewRNG(13)
	for trial := 0; trial < 100; trial++ {
		var ref, fast melEncoder
		ref.reset()
		fast.reset()
		for seg := 0; seg < 20; seg++ {
			zeros := rng.Intn(100)
			for i := 0; i < zeros; i++ {
				ref.encode(0)
			}
			fast.encodeZeros(zeros)
			ref.encode(1)
			fast.encode(1)
		}
		ref.flush()
		fast.flush()
		if !bytes.Equal(ref.w.buf, fast.w.buf) {
			t.Fatalf("trial %d: encodeZeros output differs from event loop", trial)
		}
	}
}

// TestUExpRoundTrip covers the full prefix-code range.
func TestUExpRoundTrip(t *testing.T) {
	for u := 0; u <= 37; u++ {
		var w htWriter
		w.reset()
		c := uexpCode[u]
		w.put(uint32(c&0xFF), uint(c>>8))
		w.flush()
		var r htReader
		r.init(w.buf)
		if got := getUExp(&r); got != u {
			t.Fatalf("u=%d decoded as %d", u, got)
		}
	}
}

// --- block round trips -------------------------------------------------

// roundTripHT encodes with the HT coder and decodes the given pass
// prefix, returning the block and the reconstruction.
func roundTripHT(t *testing.T, coef []int32, w, h int, orient dwt.Orient, mode Mode, passes int) (*Block, []int32) {
	t.Helper()
	blk := Encode(coef, w, h, w, orient, mode, 1.0)
	if passes <= 0 || passes > len(blk.Passes) {
		passes = len(blk.Passes)
	}
	segLens := make([]int, len(blk.Passes))
	for i, p := range blk.Passes {
		segLens[i] = p.SegLen
	}
	got := make([]int32, w*h)
	if err := Decode(got, w, h, w, orient, mode, blk.NumBPS, passes, blk.Data, segLens); err != nil {
		t.Fatal(err)
	}
	return blk, got
}

// TestHTLosslessRoundTrip: ModeHT must reproduce every coefficient
// exactly, across orientations, content statistics, and geometries
// (odd sizes exercise the partial-quad paths).
func TestHTLosslessRoundTrip(t *testing.T) {
	sizes := []struct{ w, h int }{
		{1, 1}, {1, 7}, {7, 1}, {3, 5}, {2, 9}, {16, 16}, {33, 17}, {64, 64}, {64, 37}, {13, 64},
	}
	for _, o := range []dwt.Orient{dwt.LL, dwt.HL, dwt.LH, dwt.HH} {
		for _, s := range sizes {
			for name, coef := range map[string][]int32{
				"dense":  randBlock(s.w, s.h, uint32(s.w*s.h)+uint32(o), 500),
				"sparse": sparseBlock(s.w, s.h, uint32(s.w+s.h*3)+uint32(o)),
			} {
				_, got := roundTripHT(t, coef, s.w, s.h, o, ModeHT, 0)
				for i := range coef {
					if got[i] != coef[i] {
						t.Fatalf("%v %s %dx%d: coef %d decoded %d, want %d",
							o, name, s.w, s.h, i, got[i], coef[i])
					}
				}
			}
		}
	}
}

// TestHTRefineRoundTrip pins the three-pass variant: decoding any pass
// prefix reconstructs every coefficient to within one quantizer step
// (the plane-1 midpoint bound), and the magnitude-2+ samples are exact
// once MagRef lands.
func TestHTRefineRoundTrip(t *testing.T) {
	for _, s := range []struct{ w, h int }{{16, 16}, {33, 17}, {64, 64}, {5, 3}} {
		coef := randBlock(s.w, s.h, uint32(s.w)*31+uint32(s.h), 400)
		blk := Encode(coef, s.w, s.h, s.w, dwt.HL, ModeHTRefine, 1.0)
		if len(blk.Passes) != 3 {
			t.Fatalf("%dx%d: ModeHTRefine produced %d passes, want 3", s.w, s.h, len(blk.Passes))
		}
		wantTypes := []PassType{PassCln, PassSig, PassRef}
		for i, p := range blk.Passes {
			if p.Type != wantTypes[i] {
				t.Fatalf("pass %d type %v, want %v", i, p.Type, wantTypes[i])
			}
		}
		for passes := 1; passes <= 3; passes++ {
			_, got := roundTripHT(t, coef, s.w, s.h, dwt.HL, ModeHTRefine, passes)
			for i := range coef {
				d := got[i] - coef[i]
				if d < 0 {
					d = -d
				}
				if d > 1 {
					t.Fatalf("%dx%d passes=%d: coef %d decoded %d, want %d (err %d > 1)",
						s.w, s.h, passes, i, got[i], coef[i], d)
				}
				if passes == 3 {
					m := coef[i]
					if m < 0 {
						m = -m
					}
					if m >= 2 && got[i] != coef[i] {
						t.Fatalf("%dx%d full decode: magnitude-%d coef %d not exact: %d", s.w, s.h, m, i, got[i])
					}
				}
			}
		}
	}
}

// TestHTRefineSinglePlaneBlock: numBPS == 1 blocks cannot run a plane-1
// cleanup; ModeHTRefine must fall back to a single plane-0 cleanup and
// stay exact.
func TestHTRefineSinglePlaneBlock(t *testing.T) {
	coef := make([]int32, 8*8)
	coef[3], coef[17], coef[40] = 1, -1, 1
	blk, got := roundTripHT(t, coef, 8, 8, dwt.HH, ModeHTRefine, 0)
	if blk.NumBPS != 1 || len(blk.Passes) != 1 {
		t.Fatalf("numBPS=%d passes=%d, want 1/1", blk.NumBPS, len(blk.Passes))
	}
	for i := range coef {
		if got[i] != coef[i] {
			t.Fatalf("coef %d decoded %d, want %d", i, got[i], coef[i])
		}
	}
}

// TestHTDeterminism: the HT coder is a pure function of its input.
func TestHTDeterminism(t *testing.T) {
	coef := randBlock(64, 64, 5, 300)
	a := Encode(coef, 64, 64, 64, dwt.LH, ModeHT, 1.0)
	for i := 0; i < 10; i++ {
		b := Encode(coef, 64, 64, 64, dwt.LH, ModeHT, 1.0)
		if !bytes.Equal(a.Data, b.Data) {
			t.Fatal("HT encode output not deterministic")
		}
	}
}

// TestHTAllZeroBlock mirrors the MQ contract for empty blocks.
func TestHTAllZeroBlock(t *testing.T) {
	coef := make([]int32, 16*16)
	blk := Encode(coef, 16, 16, 16, dwt.LL, ModeHT, 1.0)
	if blk.NumBPS != 0 || len(blk.Passes) != 0 || len(blk.Data) != 0 {
		t.Fatalf("all-zero block: numBPS=%d passes=%d data=%d", blk.NumBPS, len(blk.Passes), len(blk.Data))
	}
}

// TestHTStuffingInStreams: blocks whose MagSgn stream is dense with
// 0xFF bytes (all-ones magnitudes) still round-trip — the stuffing
// path, not just the common case.
func TestHTStuffingInStreams(t *testing.T) {
	coef := make([]int32, 32*32)
	for i := range coef {
		coef[i] = 0x7FFF // v-1 = 0x7FFE over 15 bits → long FF runs
		if i%2 == 1 {
			coef[i] = -coef[i]
		}
	}
	_, got := roundTripHT(t, coef, 32, 32, dwt.LL, ModeHT, 0)
	for i := range coef {
		if got[i] != coef[i] {
			t.Fatalf("coef %d decoded %d, want %d", i, got[i], coef[i])
		}
	}
}

// TestHTDecodeCorrupt: structurally damaged segments must error (or
// decode to garbage) without panicking.
func TestHTDecodeCorrupt(t *testing.T) {
	coef := randBlock(32, 32, 9, 200)
	blk := Encode(coef, 32, 32, 32, dwt.HL, ModeHT, 1.0)
	segLens := []int{len(blk.Data)}
	out := make([]int32, 32*32)

	// Truncations at every prefix length.
	for n := 0; n <= len(blk.Data); n++ {
		Decode(out, 32, 32, 32, dwt.HL, ModeHT, blk.NumBPS, 1, blk.Data[:n], []int{n})
	}
	// Single-byte corruption sweep.
	for i := 0; i < len(blk.Data); i++ {
		tmp := append([]byte(nil), blk.Data...)
		tmp[i] ^= 0xFF
		Decode(out, 32, 32, 32, dwt.HL, ModeHT, blk.NumBPS, 1, tmp, segLens)
	}
	// Hostile trailers: lengths exceeding the body, bad plane.
	bad := append([]byte(nil), blk.Data...)
	for i := 0; i < htTrailerLen; i++ {
		bad[len(bad)-1-i] = 0xFF
	}
	if err := Decode(out, 32, 32, 32, dwt.HL, ModeHT, blk.NumBPS, 1, bad, segLens); err == nil {
		t.Fatal("hostile trailer accepted")
	}
	// Declared pass counts beyond the HT maximum.
	if err := Decode(out, 32, 32, 32, dwt.HL, ModeHT, blk.NumBPS, 4, blk.Data, []int{1, 1, 1, 1}); err == nil {
		t.Fatal("4-pass HT block accepted")
	}
}

// TestHTPropRoundTrip is the property-based sweep across geometry,
// orientation, and both HT modes.
func TestHTPropRoundTrip(t *testing.T) {
	f := func(w8, h8 uint8, seed uint32, o8, m8 uint8) bool {
		w, h := int(w8)%40+1, int(h8)%40+1
		orient := dwt.Orient(o8 % 4)
		mode := ModeHT
		if m8%2 == 1 {
			mode = ModeHTRefine
		}
		coef := sparseBlock(w, h, seed)
		blk := Encode(coef, w, h, w, orient, mode, 1.0)
		segLens := make([]int, len(blk.Passes))
		for i, p := range blk.Passes {
			segLens[i] = p.SegLen
		}
		got := make([]int32, w*h)
		if err := Decode(got, w, h, w, orient, mode, blk.NumBPS, len(blk.Passes), blk.Data, segLens); err != nil {
			return false
		}
		for i := range coef {
			d := got[i] - coef[i]
			if d < 0 {
				d = -d
			}
			if mode == ModeHT && d != 0 {
				return false
			}
			if d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// FuzzHTRoundTrip mirrors FuzzT1RoundTrip for the HT modes.
func FuzzHTRoundTrip(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint8(0), uint8(0), []byte{1, 2, 3, 4})
	f.Add(uint8(7), uint8(33), uint8(2), uint8(1), []byte{0xFF, 0xFF, 0x80, 0})
	f.Fuzz(func(t *testing.T, w8, h8, o8, m8 uint8, raw []byte) {
		w, h := int(w8)%64+1, int(h8)%64+1
		orient := dwt.Orient(o8 % 4)
		mode := ModeHT
		if m8%2 == 1 {
			mode = ModeHTRefine
		}
		coef := make([]int32, w*h)
		for i := range coef {
			if len(raw) == 0 {
				break
			}
			b := raw[i%len(raw)]
			v := int32(b) << (uint(i) % 8)
			if b&1 == 1 {
				v = -v
			}
			coef[i] = v
		}
		blk := Encode(coef, w, h, w, orient, mode, 1.0)
		segLens := make([]int, len(blk.Passes))
		for i, p := range blk.Passes {
			segLens[i] = p.SegLen
		}
		got := make([]int32, w*h)
		if err := Decode(got, w, h, w, orient, mode, blk.NumBPS, len(blk.Passes), blk.Data, segLens); err != nil {
			t.Fatalf("decode of freshly encoded block failed: %v", err)
		}
		for i := range coef {
			d := got[i] - coef[i]
			if d < 0 {
				d = -d
			}
			if mode == ModeHT && d != 0 {
				t.Fatalf("lossless HT mismatch at %d: %d != %d", i, got[i], coef[i])
			}
			if d > 1 {
				t.Fatalf("refine HT error %d at %d", d, i)
			}
		}
	})
}
