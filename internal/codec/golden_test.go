package codec

import (
	"context"
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
	"lossless-128":        "39bf683f8509187f6b24a14e81997912047990d47e2eb0bd6a68ab9d3593b42e",
	"lossy-0.1-128":       "b6f47a0180656c43b95bad3bb80ea4f525aeb41b29f9610c8b4681bf5c6ff671",
	"layers-128":          "1e49c0ed82b919b3715f377476bb91a4d65c5b26bd3bad567d5ee680a305b9e6",
	"tiled-64-128":        "dc994f16538ca8b1067d8646bf7e0abaf2b58a3700a0908c50341eb03c14a4c9",
	"rlcp-128":            "c648ac9d29682c72708ac2eac5f5119c869809e83a71fd68b127ca01d408c281",
	"grayscale-16b":       "59d99318ef348cac1b5ac87a0cfb363c0dabc4e374e888e0c542b9c9f0479717",
	"lossy-l1-128":        "eea723e1797ba162bcdf9bf57a0bd8a8782a2b94300182b86e52e1d28cf9af95",
	"lossy-l6-128":        "90a08123b94dd1d5dbcbfbe52ad5bd0bfe491e2ba86cc888cc8d9ef5d2ea1a6f",
	"ht-lossless-128":     "60bd13d2c9d639b8af18cfeb68647179ff92690a13a38da6fc969c73ef0eef9d",
	"ht-lossy-0.1-128":    "be108ec4c4bfa6faffa2b1c2c2ee9cccc137eaae817a5c9d3ed92b347451d5e7",
	"ht-layers-128":       "2d8bcb025ff1402130a5592b3bafee5910735f34e4a3100f3d440d036a2a2767",
	"ht-tiled-64-128":     "b3a0ce0ea547bc42d93a64771512a01a32dae3ae7f407ebdb14bcba586ad0114",
	"tiled-layers-64-128": "ebad6666d36cbaa2e50df5662e2464b8bb4b4cd1f675b794f45b75a1548de588",
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
		"lossless-128":  func() (*Result, error) { return Encode(context.Background(), rgb, Options{Lossless: true}, 1) },
		"lossy-0.1-128": func() (*Result, error) { return Encode(context.Background(), rgb, Options{Rate: 0.1}, 1) },
		"layers-128": func() (*Result, error) {
			return Encode(context.Background(), rgb, Options{LayerRates: []float64{0.05, 0.2}}, 1)
		},
		"tiled-64-128": func() (*Result, error) {
			return Encode(context.Background(), rgb, Options{Lossless: true, TileW: 64, TileH: 64}, 1)
		},
		"rlcp-128": func() (*Result, error) {
			return Encode(context.Background(), rgb, Options{Rate: 0.2, Progression: RLCP}, 1)
		},
		"grayscale-16b": func() (*Result, error) { return Encode(context.Background(), g16, Options{Lossless: true}, 1) },
		// The shallowest and deepest lossy depths whose step sizes and
		// PCRD weights the default-depth entries above do not cover.
		"lossy-l1-128": func() (*Result, error) { return Encode(context.Background(), rgb, Options{Rate: 0.1, Levels: 1}, 1) },
		"lossy-l6-128": func() (*Result, error) { return Encode(context.Background(), rgb, Options{Rate: 0.1, Levels: 6}, 1) },
		// The HT block coder: plane-0 cleanup only (lossless), the
		// three-pass refine mode under one budget and two layers, and
		// per-tile blocks.
		"ht-lossless-128": func() (*Result, error) {
			return Encode(context.Background(), rgb, Options{HT: true, Lossless: true}, 1)
		},
		"ht-lossy-0.1-128": func() (*Result, error) { return Encode(context.Background(), rgb, Options{HT: true, Rate: 0.1}, 1) },
		"ht-layers-128": func() (*Result, error) {
			return Encode(context.Background(), rgb, Options{HT: true, LayerRates: []float64{0.05, 0.2}}, 1)
		},
		"ht-tiled-64-128": func() (*Result, error) {
			return Encode(context.Background(), rgb, Options{HT: true, Rate: 0.1, TileW: 64, TileH: 64}, 1)
		},
		// Tiled lossy MQ under global PCRD across two layers.
		"tiled-layers-64-128": func() (*Result, error) {
			return Encode(context.Background(), rgb, Options{LayerRates: []float64{0.05, 0.2}, TileW: 64, TileH: 64}, 1)
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
