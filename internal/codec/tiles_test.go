package codec

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"testing"

	"j2kcell/internal/workload"
)

// TestOneTileGridEqualsUntiled pins the invariant the single encode and
// decode paths rest on: a tile grid of one tile covering the image is
// the untiled stream, byte for byte, and decodes to the same pixels in
// full, Region and reduced-resolution decodes.
func TestOneTileGridEqualsUntiled(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"lossless", Options{Lossless: true}},
		{"rate-0.1", Options{Rate: 0.1}},
		{"layers", Options{LayerRates: []float64{0.05, 0.2}}},
		{"resilience", Options{Rate: 0.2, Resilience: true}},
		{"ht-lossless", Options{HT: true, Lossless: true}},
		{"ht-lossy", Options{HT: true, Rate: 0.1}},
	}
	for _, size := range [][2]int{{128, 128}, {97, 71}} {
		w, h := size[0], size[1]
		img := workload.Dial(w, h, 4242, 4)
		region := Rect{X0: 13, Y0: 9, W: w / 2, H: h / 3}
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s-%dx%d", c.name, w, h), func(t *testing.T) {
				untiled, err := Encode(context.Background(), img, c.opt, 1)
				if err != nil {
					t.Fatal(err)
				}
				opt := c.opt
				opt.TileW, opt.TileH = w, h
				grid, err := Encode(context.Background(), img, opt, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(untiled.Data, grid.Data) {
					t.Fatalf("one-tile grid stream differs from untiled (%d vs %d bytes)", len(grid.Data), len(untiled.Data))
				}
				for _, dopt := range []DecodeOptions{{}, {Region: region}, {DiscardLevels: 1}, {DiscardLevels: 2, Workers: 2}} {
					a, err := Decode(context.Background(), untiled.Data, dopt)
					if err != nil {
						t.Fatalf("%+v: %v", dopt, err)
					}
					b, err := Decode(context.Background(), grid.Data, dopt)
					if err != nil {
						t.Fatalf("%+v: %v", dopt, err)
					}
					if !a.Equal(b) {
						t.Fatalf("%+v: decodes differ", dopt)
					}
				}
			})
		}
	}
}

// TestSingleTileDimension pins the Options doc: a zero tile dimension
// spans the image on that axis.
func TestSingleTileDimension(t *testing.T) {
	img := workload.Dial(128, 96, 31, 4)
	for _, base := range []Options{{Lossless: true}, {Rate: 0.2, HT: true}} {
		for _, tile := range [][2]int{{48, 0}, {0, 40}} {
			one, explicit := base, base
			one.TileW, one.TileH = tile[0], tile[1]
			explicit.TileW, explicit.TileH = cmp.Or(tile[0], img.W), cmp.Or(tile[1], img.H)
			a, err := Encode(context.Background(), img, one, 2)
			if err != nil {
				t.Fatalf("%+v: %v", one, err)
			}
			b, err := Encode(context.Background(), img, explicit, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Data, b.Data) {
				t.Fatalf("%+v: stream differs from the explicit %+v stream", one, explicit)
			}
			dec, err := Decode(context.Background(), a.Data, DecodeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if dec.W != img.W || dec.H != img.H || (base.Lossless && !dec.Equal(img)) {
				t.Fatalf("%+v: decode does not reproduce the image", one)
			}
		}
	}
}
