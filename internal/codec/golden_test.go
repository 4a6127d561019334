package codec

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"j2kcell/internal/workload"
)

// Golden stream digests: the encoder is fully deterministic, so any
// change to these hashes means the emitted format changed. If a change
// is intentional (e.g. a codestream extension), run the test with -v:
// it logs the new digests to paste in here.
var goldenStreams = map[string]string{
	"lossless-128":     "39bf683f8509187f6b24a14e81997912047990d47e2eb0bd6a68ab9d3593b42e",
	"lossy-0.1-128":    "2fb1f2e55161201fccef7da4c7de9630db012cf42a1ce09a6b5ffa29177f9b69",
	"layers-128":       "40784986a01d266b6e66225ac4b872fc433556589a8d9640773e73251d7d0845",
	"tiled-64-128":     "dc994f16538ca8b1067d8646bf7e0abaf2b58a3700a0908c50341eb03c14a4c9",
	"rlcp-128":         "066ff6014518541cdf0debeec9c8d83c445317f3999ba1b64ee6bc4e87175346",
	"grayscale-16b":    "0d290ea86d3cbfb8402f1d2ddd8c1c5c492146c0c2d7b96c3838e77b2cb8bda4",
	"lossy-l1-128":     "6e88d48ff1a009e63118aa33a25be88bdb5f1cc6baf3ed4def95c3fa1c8e5379",
	"lossy-l6-128":     "b798bb987b9a35bf9002ff706b0d85b1ebf106e1f1076702df67676dec04c235",
	"ht-lossless-128":  "60bd13d2c9d639b8af18cfeb68647179ff92690a13a38da6fc969c73ef0eef9d",
	"ht-lossy-0.1-128": "be108ec4c4bfa6faffa2b1c2c2ee9cccc137eaae817a5c9d3ed92b347451d5e7",
	"ht-layers-128":    "2d8bcb025ff1402130a5592b3bafee5910735f34e4a3100f3d440d036a2a2767",
	"ht-tiled-64-128":  "b3a0ce0ea547bc42d93a64771512a01a32dae3ae7f407ebdb14bcba586ad0114",
}

func goldenImage() map[string]func() (*Result, error) {
	rgb := workload.Dial(128, 128, 777, 4)
	gray := workload.Dial(64, 64, 778, 4)
	g16 := gray.Clone()
	g16.Depth = 16
	g16.Comps = g16.Comps[:1]
	for y := 0; y < g16.H; y++ {
		row := g16.Comps[0].Row(y)
		for x := range row {
			row[x] <<= 8
		}
	}
	return map[string]func() (*Result, error){
		"lossless-128":  func() (*Result, error) { return Encode(rgb, Options{Lossless: true}) },
		"lossy-0.1-128": func() (*Result, error) { return Encode(rgb, Options{Rate: 0.1}) },
		"layers-128": func() (*Result, error) {
			return Encode(rgb, Options{LayerRates: []float64{0.05, 0.2}})
		},
		"tiled-64-128": func() (*Result, error) {
			return Encode(rgb, Options{Lossless: true, TileW: 64, TileH: 64})
		},
		"rlcp-128": func() (*Result, error) {
			return Encode(rgb, Options{Rate: 0.2, Progression: RLCP})
		},
		"grayscale-16b": func() (*Result, error) { return Encode(g16, Options{Lossless: true}) },
		// The shallowest and deepest lossy depths whose step sizes and
		// PCRD weights the default-depth entries above do not cover.
		"lossy-l1-128": func() (*Result, error) { return Encode(rgb, Options{Rate: 0.1, Levels: 1}) },
		"lossy-l6-128": func() (*Result, error) { return Encode(rgb, Options{Rate: 0.1, Levels: 6}) },
		// The HT block coder: plane-0 cleanup only (lossless), the
		// three-pass refine mode under one budget and two layers, and
		// per-tile blocks.
		"ht-lossless-128":  func() (*Result, error) { return Encode(rgb, Options{HT: true, Lossless: true}) },
		"ht-lossy-0.1-128": func() (*Result, error) { return Encode(rgb, Options{HT: true, Rate: 0.1}) },
		"ht-layers-128": func() (*Result, error) {
			return Encode(rgb, Options{HT: true, LayerRates: []float64{0.05, 0.2}})
		},
		"ht-tiled-64-128": func() (*Result, error) {
			return Encode(rgb, Options{HT: true, Rate: 0.1, TileW: 64, TileH: 64})
		},
	}
}

// TestGoldenStreams pins the emitted byte streams. Because the decoder
// round-trips are verified elsewhere, this test exists purely to make
// format drift loud.
func TestGoldenStreams(t *testing.T) {
	for name, enc := range goldenImage() {
		res, err := enc()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(res.Data)
		got := hex.EncodeToString(sum[:])
		want, ok := goldenStreams[name]
		if !ok {
			t.Fatalf("%s: no golden digest; add %q", name, got)
		}
		if got != want {
			t.Errorf("%s: stream digest changed:\n  got  %s\n  want %s\n(intentional format changes must update goldenStreams)", name, got, want)
		}
	}
}
