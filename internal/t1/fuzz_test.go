package t1

import (
	"bytes"
	"testing"

	"j2kcell/internal/dwt"
)

// FuzzT1RoundTrip encodes a fuzzer-chosen code block and asserts the
// decoder reproduces it exactly from the emitted bitstream, in both
// segmentation modes — the end-to-end check that the flag-word fast
// paths fire at the same points in encoder and decoder.
func FuzzT1RoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(0), uint8(0), []byte{1, 2, 3, 4})
	f.Add(uint8(13), uint8(7), uint8(1), uint8(1), []byte{0xFF, 0x00, 0x80, 0x7F, 9})
	f.Add(uint8(32), uint8(32), uint8(3), uint8(0), bytes.Repeat([]byte{0, 0, 0, 200}, 32))
	f.Add(uint8(1), uint8(9), uint8(2), uint8(1), []byte{255, 255})
	f.Fuzz(func(t *testing.T, w8, h8, o8, m8 uint8, raw []byte) {
		w := int(w8)%64 + 1
		h := int(h8)%64 + 1
		orient := dwt.Orient(o8 % 4)
		mode := Mode(m8 % 2)
		coef := make([]int32, w*h)
		for i := range coef {
			if len(raw) == 0 {
				break
			}
			b := raw[i%len(raw)]
			v := int32(b) << (uint(i) % 6) // magnitudes spanning several planes
			if b&1 == 1 {
				v = -v
			}
			coef[i] = v
		}
		blk := Encode(coef, w, h, w, orient, mode, 1.0)
		segLens := make([]int, len(blk.Passes))
		for i, p := range blk.Passes {
			segLens[i] = int(p.SegLen)
		}
		got := make([]int32, w*h)
		if err := Decode(got, w, h, w, orient, mode, blk.NumBPS, len(blk.Passes), blk.Data, segLens); err != nil {
			t.Fatalf("%dx%d %v mode %d: %v", w, h, orient, mode, err)
		}
		for i := range coef {
			if got[i] != coef[i] {
				t.Fatalf("%dx%d %v mode %d: coef %d decoded %d, want %d", w, h, orient, mode, i, got[i], coef[i])
			}
		}
	})
}
