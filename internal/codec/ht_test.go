package codec

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"j2kcell/internal/codestream"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/workload"
)

// gradientImage is a smooth diagonal ramp — the content HT's AZC/MEL
// run coding eats (long all-quiet quad rows in the detail bands).
func gradientImage(n int) *imgmodel.Image {
	img := imgmodel.NewImage(n, n, 3, 8)
	for c := 0; c < 3; c++ {
		for y := 0; y < n; y++ {
			row := img.Comps[c].Row(y)
			for x := 0; x < n; x++ {
				row[x] = int32((x*255/n + y*255/n + c*40) % 256)
			}
		}
	}
	return img
}

// noiseImage is full-amplitude white noise — every quad significant,
// the MagSgn-stream worst case.
func noiseImage(n int, seed uint32) *imgmodel.Image {
	img := imgmodel.NewImage(n, n, 3, 8)
	rng := workload.NewRNG(seed)
	for c := 0; c < 3; c++ {
		for y := 0; y < n; y++ {
			row := img.Comps[c].Row(y)
			for x := 0; x < n; x++ {
				row[x] = int32(rng.Intn(256))
			}
		}
	}
	return img
}

// TestHTLosslessMatrix: HT lossless encode → decode must be bit exact
// across image sizes, content statistics, and tiling — the PR 7
// acceptance matrix.
func TestHTLosslessMatrix(t *testing.T) {
	for _, n := range []int{16, 64, 128, 256} {
		for _, content := range []string{"gradient", "noise"} {
			for _, tiled := range []bool{false, true} {
				name := fmt.Sprintf("%s/%d/tiled=%v", content, n, tiled)
				t.Run(name, func(t *testing.T) {
					var img *imgmodel.Image
					if content == "gradient" {
						img = gradientImage(n)
					} else {
						img = noiseImage(n, uint32(n))
					}
					opt := Options{Lossless: true, HT: true}
					if tiled {
						opt.TileW, opt.TileH = (n+1)/2, (n*2+2)/3
					}
					res, err := Encode(context.Background(), img, opt, 1)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Decode(context.Background(), res.Data, DecodeOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if !img.Equal(got) {
						t.Fatal("HT lossless round trip not bit exact")
					}
				})
			}
		}
	}
}

// TestHTLosslessDialImage runs the natural-image workload through HT,
// untiled and tiled with non-multiple tile sizes.
func TestHTLosslessDialImage(t *testing.T) {
	img := workload.Dial(97, 61, 7, 5)
	for _, opt := range []Options{
		{Lossless: true, HT: true},
		{Lossless: true, HT: true, TileW: 48, TileH: 32},
	} {
		res, err := Encode(context.Background(), img, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !img.Equal(got) {
			t.Fatalf("HT dial round trip not bit exact (opt %+v)", opt)
		}
	}
}

// TestHTLossyQuality: the unconstrained lossy HT path must land close
// to the MQ path in quality (same transforms and quantizer; only the
// block coder differs, and ModeHT codes quantizer indices exactly).
func TestHTLossyQuality(t *testing.T) {
	img := workload.Dial(128, 128, 11, 3)
	res, err := Encode(context.Background(), img, Options{Lossless: false, HT: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if psnr := img.PSNR(got); psnr < 38 {
		t.Fatalf("HT lossy PSNR %.1f dB < 38", psnr)
	}
}

// TestHTRateControl: the constrained path (ModeHTRefine, three
// truncation points per block) must respect the byte budget and still
// produce a usable image.
func TestHTRateControl(t *testing.T) {
	img := workload.Dial(256, 256, 5, 5)
	for _, r := range []float64{0.1, 0.3} {
		res, err := Encode(context.Background(), img, Options{Lossless: false, Rate: r, HT: true}, 1)
		if err != nil {
			t.Fatal(err)
		}
		budget := int(r * float64(256*256*3))
		if len(res.Data) > budget+2048 {
			t.Fatalf("rate %.2f: %d bytes over budget %d", r, len(res.Data), budget)
		}
		got, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if psnr := img.PSNR(got); psnr < 25 {
			t.Fatalf("rate %.2f: PSNR %.1f dB < 25", r, psnr)
		}
	}
}

// TestHTSignaledInCodestream pins the capability wiring: an HT stream
// parses back with h.HT set (that is what routes the decoder to the HT
// block coder), an MQ stream does not, and the two coders' outputs
// actually differ.
func TestHTSignaledInCodestream(t *testing.T) {
	img := workload.Dial(64, 64, 3, 4)
	ht, err := Encode(context.Background(), img, Options{Lossless: true, HT: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mq, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hh, _, err := codestream.DecodeTiles(ht.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !hh.HT {
		t.Fatal("HT stream parsed without the HT capability bit")
	}
	hm, _, err := codestream.DecodeTiles(mq.Data)
	if err != nil {
		t.Fatal(err)
	}
	if hm.HT {
		t.Fatal("MQ stream parsed with the HT capability bit set")
	}
	if bytes.Equal(ht.Data, mq.Data) {
		t.Fatal("HT and MQ codestreams identical — coder switch had no effect")
	}
	// Rsiz must advertise the Part 15 capability (bytes 4..6 of the
	// stream are the SIZ marker+length; Rsiz is the payload's first
	// field at offset 6).
	if ht.Data[6]&0x40 == 0 {
		t.Fatal("HT stream Rsiz missing capability bit 14")
	}
}

// TestHTLayeredDecode: HT layer truncation points must be decodable as
// prefixes, improving monotonically.
func TestHTLayeredDecode(t *testing.T) {
	img := workload.Dial(128, 128, 13, 4)
	res, err := Encode(context.Background(), img, Options{Lossless: false, LayerRates: []float64{0.05, 0.2, 0}, HT: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for l := 1; l <= 3; l++ {
		got, err := Decode(context.Background(), res.Data, DecodeOptions{MaxLayers: l})
		if err != nil {
			t.Fatalf("layer %d: %v", l, err)
		}
		psnr := img.PSNR(got)
		if psnr < prev-0.01 {
			t.Fatalf("layer %d PSNR %.2f regressed from %.2f", l, psnr, prev)
		}
		prev = psnr
	}
	if prev < 30 {
		t.Fatalf("full-layer HT PSNR %.1f dB < 30", prev)
	}
}
