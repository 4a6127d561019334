package codec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"j2kcell/internal/codestream"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/workload"
)

func TestLosslessRoundTripExact(t *testing.T) {
	for _, size := range []struct{ w, h int }{{64, 64}, {100, 70}, {33, 129}, {257, 64}} {
		img := workload.Dial(size.w, size.h, 7, 5)
		res, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatalf("%dx%d: decode: %v", size.w, size.h, err)
		}
		if !img.Equal(got) {
			t.Fatalf("%dx%d: lossless round trip not bit exact", size.w, size.h)
		}
	}
}

func TestLosslessCompresses(t *testing.T) {
	img := workload.Dial(256, 256, 3, 4)
	res, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw := 256 * 256 * 3
	if len(res.Data) >= raw {
		t.Fatalf("lossless output %d >= raw %d", len(res.Data), raw)
	}
	ratio := float64(raw) / float64(len(res.Data))
	if ratio < 1.3 {
		t.Fatalf("compression ratio %.2f too weak for a natural image", ratio)
	}
}

func TestLossyHighQuality(t *testing.T) {
	img := workload.Dial(128, 128, 11, 3)
	res, err := Encode(context.Background(), img, Options{Lossless: false}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if psnr := img.PSNR(got); psnr < 38 {
		t.Fatalf("unconstrained lossy PSNR %.1f dB < 38", psnr)
	}
}

func TestLossyRateControlHitsTarget(t *testing.T) {
	img := workload.Dial(256, 256, 5, 5)
	raw := 256 * 256 * 3
	for _, r := range []float64{0.05, 0.1, 0.25} {
		res, err := Encode(context.Background(), img, Options{Lossless: false, Rate: r}, 1)
		if err != nil {
			t.Fatal(err)
		}
		budget := int(r * float64(raw))
		if len(res.Data) > budget {
			t.Fatalf("rate %.2f: output %d exceeds budget %d", r, len(res.Data), budget)
		}
		if len(res.Data) < budget/2 {
			t.Fatalf("rate %.2f: output %d uses under half the budget %d", r, len(res.Data), budget)
		}
		got, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatalf("rate %.2f: decode: %v", r, err)
		}
		psnr := img.PSNR(got)
		if psnr < 25 {
			t.Fatalf("rate %.2f: PSNR %.1f dB too low", r, psnr)
		}
	}
}

func TestLossyQualityMonotoneInRate(t *testing.T) {
	img := workload.Dial(192, 192, 9, 4)
	last := 0.0
	for _, r := range []float64{0.03, 0.1, 0.4} {
		res, err := Encode(context.Background(), img, Options{Lossless: false, Rate: r}, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		psnr := img.PSNR(got)
		if psnr < last-0.2 {
			t.Fatalf("PSNR fell from %.2f to %.2f as rate rose to %.2f", last, psnr, r)
		}
		last = psnr
	}
}

func TestGrayscaleSingleComponent(t *testing.T) {
	img := imgmodel.NewImage(80, 60, 1, 8)
	rng := workload.NewRNG(4)
	for y := 0; y < 60; y++ {
		row := img.Comps[0].Row(y)
		for x := range row {
			row[x] = int32((x*3+y*2)%256/2 + rng.Intn(4))
		}
	}
	res, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(got) {
		t.Fatal("grayscale lossless round trip failed")
	}
}

func TestSmallImages(t *testing.T) {
	for _, s := range []struct{ w, h int }{{1, 1}, {2, 2}, {5, 1}, {1, 9}, {8, 8}} {
		img := workload.Noise(s.w, s.h, 3)
		res, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
		if err != nil {
			t.Fatalf("%dx%d: %v", s.w, s.h, err)
		}
		got, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatalf("%dx%d: decode: %v", s.w, s.h, err)
		}
		if !img.Equal(got) {
			t.Fatalf("%dx%d: round trip failed", s.w, s.h)
		}
	}
}

func TestCodeBlockSizes(t *testing.T) {
	img := workload.Dial(130, 130, 2, 3)
	for _, cb := range []int{16, 32, 64} {
		res, err := Encode(context.Background(), img, Options{Lossless: true, CBW: cb, CBH: cb}, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatalf("cb=%d: %v", cb, err)
		}
		if !img.Equal(got) {
			t.Fatalf("cb=%d: round trip failed", cb)
		}
	}
}

func TestDecompositionLevels(t *testing.T) {
	img := workload.Dial(96, 96, 8, 3)
	for _, lv := range []int{0, 1, 3, 6} {
		opt := Options{Lossless: true, Levels: lv}
		if lv == 0 {
			continue // 0 means default; tested elsewhere
		}
		res, err := Encode(context.Background(), img, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatalf("levels=%d: %v", lv, err)
		}
		if !img.Equal(got) {
			t.Fatalf("levels=%d: round trip failed", lv)
		}
	}
}

func TestNoiseVsDialCompressibility(t *testing.T) {
	dial := workload.Dial(128, 128, 1, 3)
	noise := workload.Noise(128, 128, 1)
	rd, _ := Encode(context.Background(), dial, Options{Lossless: true}, 1)
	rn, _ := Encode(context.Background(), noise, Options{Lossless: true}, 1)
	if len(rd.Data) >= len(rn.Data) {
		t.Fatalf("dial (%d B) should compress better than noise (%d B)", len(rd.Data), len(rn.Data))
	}
}

func TestStatsPopulated(t *testing.T) {
	img := workload.Dial(128, 96, 6, 4)
	res, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Samples != 128*96*3 || s.Blocks == 0 || s.T1Scanned == 0 || s.T1Coded == 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.KeptPasses != s.TotalPasses {
		t.Fatal("lossless must keep all passes")
	}
	if s.HeaderBytes <= 0 || s.BodyBytes <= 0 || s.HeaderBytes+s.BodyBytes != len(res.Data) {
		t.Fatalf("byte accounting: header %d body %d total %d", s.HeaderBytes, s.BodyBytes, len(res.Data))
	}
}

func TestRateControlKeepsFewerPasses(t *testing.T) {
	img := workload.Dial(256, 256, 13, 6)
	full, err := Encode(context.Background(), img, Options{Lossless: false}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Encode(context.Background(), img, Options{Lossless: false, Rate: 0.05}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Stats.KeptPasses >= full.Stats.KeptPasses {
		t.Fatalf("rate control kept %d of %d passes", tight.Stats.KeptPasses, full.Stats.KeptPasses)
	}
}

// TestHeaderModeMatchesEncoder pins the one coding-style decision on
// both sides: over the encoder's option matrix, the Tier-1 mode a
// decoder reads from the written COD flags agrees with the mode the
// encoder coded on whether every pass is its own segment and on
// segmentation symbols.
func TestHeaderModeMatchesEncoder(t *testing.T) {
	img := workload.Dial(64, 64, 5, 4)
	for _, ht := range []bool{false, true} {
		for _, rate := range []float64{0, 0.3} {
			for _, res := range []bool{false, true} {
				opt := Options{HT: ht, Lossless: rate == 0, Rate: rate, Resilience: res}
				enc, err := Encode(context.Background(), img, opt, 1)
				if err != nil {
					t.Fatalf("%+v: %v", opt, err)
				}
				h, _, _, err := parseStream(enc.Data, DecodeOptions{}.limits())
				if err != nil {
					t.Fatalf("%+v: %v", opt, err)
				}
				got, want := headerMode(h), opt.Mode()
				if got.PerPass() != want.PerPass() || got.SegSym() != want.SegSym() {
					t.Errorf("%+v: header mode %v (per-pass %v, segsym %v), encoder mode %v (per-pass %v, segsym %v)",
						opt, got, got.PerPass(), got.SegSym(), want, want.PerPass(), want.SegSym())
				}
			}
		}
	}
}

func TestEncodeRejectsBadImages(t *testing.T) {
	bad := &imgmodel.Image{W: 4, H: 4, Depth: 8}
	if _, err := Encode(context.Background(), bad, Options{}, 1); err == nil {
		t.Fatal("image without components accepted")
	}
	img := imgmodel.NewImage(4, 4, 2, 8)
	img.Comps[1] = imgmodel.New[int32](3, 4)
	img.Comps[1].W = 3
	if _, err := Encode(context.Background(), img, Options{}, 1); err == nil {
		t.Fatal("mismatched component accepted")
	}
	if _, err := Encode(context.Background(), nil, Options{}, 1); err == nil {
		t.Fatal("nil image accepted")
	}
	good := imgmodel.NewImage(8, 8, 1, 8)
	for _, opt := range []Options{{TileW: -1}, {TileH: -64}} {
		if _, err := Encode(context.Background(), good, opt, 1); err == nil {
			t.Fatalf("negative tile size %dx%d accepted", opt.TileW, opt.TileH)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(context.Background(), []byte{1, 2, 3}, DecodeOptions{}); err == nil {
		t.Fatal("garbage accepted")
	}
	img := workload.Dial(32, 32, 1, 0)
	res, _ := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if _, err := Decode(context.Background(), res.Data[:len(res.Data)/2], DecodeOptions{}); err == nil {
		t.Fatal("truncated codestream accepted")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	img := workload.Dial(100, 100, 2, 5)
	a, _ := Encode(context.Background(), img, Options{Lossless: true}, 1)
	b, _ := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if string(a.Data) != string(b.Data) {
		t.Fatal("encoder not deterministic")
	}
	c, _ := Encode(context.Background(), img, Options{Lossless: false, Rate: 0.1}, 1)
	d, _ := Encode(context.Background(), img, Options{Lossless: false, Rate: 0.1}, 1)
	if string(c.Data) != string(d.Data) {
		t.Fatal("lossy encoder not deterministic")
	}
}

func TestPSNRFiniteForLossy(t *testing.T) {
	img := workload.Dial(64, 64, 1, 6)
	res, _ := Encode(context.Background(), img, Options{Lossless: false, Rate: 0.2}, 1)
	got, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p := img.PSNR(got); math.IsInf(p, 1) || p < 20 {
		t.Fatalf("lossy PSNR %v implausible", p)
	}
}

func TestMultiLayerEncodeDecode(t *testing.T) {
	img := workload.Dial(256, 256, 5, 5)
	raw := 256 * 256 * 3
	rates := []float64{0.02, 0.1, 0.4}
	res, err := Encode(context.Background(), img, Options{LayerRates: rates}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LayerKeep) != 3 {
		t.Fatalf("layer keeps: %d", len(res.LayerKeep))
	}
	// Total stream respects the final budget.
	if len(res.Data) > int(rates[2]*float64(raw)) {
		t.Fatalf("stream %d exceeds final budget", len(res.Data))
	}
	// Full decode works and beats the single-layer 0.02 quality.
	full, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	psnrFull := img.PSNR(full)
	if psnrFull < 35 {
		t.Fatalf("full multi-layer PSNR %.1f too low", psnrFull)
	}
	// Layer-progressive decode: quality must increase with layers.
	last := 0.0
	for l := 1; l <= 3; l++ {
		got, err := Decode(context.Background(), res.Data, DecodeOptions{MaxLayers: l})
		if err != nil {
			t.Fatalf("layers=%d: %v", l, err)
		}
		p := img.PSNR(got)
		if p < last-0.01 {
			t.Fatalf("PSNR fell from %.2f to %.2f at %d layers", last, p, l)
		}
		last = p
	}
	if last != psnrFull {
		t.Fatalf("all-layers decode %.2f != full decode %.2f", last, psnrFull)
	}
}

func TestMultiLayerLayersAreEmbedded(t *testing.T) {
	img := workload.Dial(192, 192, 8, 5)
	res, err := Encode(context.Background(), img, Options{LayerRates: []float64{0.05, 0.2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Blocks {
		if res.LayerKeep[0][i] > res.LayerKeep[1][i] {
			t.Fatal("layer selections not nested")
		}
	}
	// First layer's quality roughly matches a single-layer encode at
	// the same rate.
	one, err := Encode(context.Background(), img, Options{Rate: 0.05}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotOne, _ := Decode(context.Background(), one.Data, DecodeOptions{})
	gotL1, err := Decode(context.Background(), res.Data, DecodeOptions{MaxLayers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p1, pL := img.PSNR(gotOne), img.PSNR(gotL1)
	if pL < p1-2 {
		t.Fatalf("layer-1 PSNR %.2f far below single-layer %.2f", pL, p1)
	}
}

func TestReducedResolutionDecode(t *testing.T) {
	img := workload.Dial(256, 192, 4, 4)
	for _, opt := range []Options{{Lossless: true}, {Rate: 0.3}} {
		res, err := Encode(context.Background(), img, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, discard := range []int{1, 2, 3} {
			got, err := Decode(context.Background(), res.Data, DecodeOptions{DiscardLevels: discard})
			if err != nil {
				t.Fatalf("discard=%d: %v", discard, err)
			}
			w, h := 256, 192
			for i := 0; i < discard; i++ {
				w, h = (w+1)/2, (h+1)/2
			}
			if got.W != w || got.H != h {
				t.Fatalf("discard=%d: got %dx%d, want %dx%d", discard, got.W, got.H, w, h)
			}
			// The reduced image must resemble a downscale of the
			// original: compare against a simple box downscale.
			var se, n float64
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					sy, sx := y<<uint(discard), x<<uint(discard)
					if sy >= 192 {
						sy = 191
					}
					if sx >= 256 {
						sx = 255
					}
					d := float64(got.Comps[0].At(y, x) - img.Comps[0].At(sy, sx))
					se += d * d
					n++
				}
			}
			rmse := se / n
			if rmse > 3000 {
				t.Fatalf("discard=%d: reduced image unrelated to source (MSE %.0f)", discard, rmse)
			}
		}
	}
}

func TestDecodeWithZeroOptionsEqualsDecode(t *testing.T) {
	img := workload.Dial(96, 96, 2, 4)
	res, _ := Encode(context.Background(), img, Options{Lossless: true}, 1)
	a, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Explicit "everything" options: every layer, full resolution.
	b, err := Decode(context.Background(), res.Data, DecodeOptions{MaxLayers: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("zero DecodeOptions differ from explicit full-decode options")
	}
}

func TestRLCPProgressionRoundTrip(t *testing.T) {
	img := workload.Dial(200, 150, 6, 4)
	for _, opt := range []Options{
		{Lossless: true, Progression: RLCP},
		{Rate: 0.15, Progression: RLCP},
		{LayerRates: []float64{0.05, 0.3}, Progression: RLCP},
	} {
		res, err := Encode(context.Background(), img, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if opt.Lossless {
			if !img.Equal(got) {
				t.Fatal("RLCP lossless round trip failed")
			}
		} else if img.PSNR(got) < 28 {
			t.Fatalf("RLCP lossy PSNR %.1f", img.PSNR(got))
		}
	}
}

func TestProgressionOrderContents(t *testing.T) {
	lrcp := PacketOrder(LRCP, 2, 1, 3)
	rlcp := PacketOrder(RLCP, 2, 1, 3)
	if len(lrcp) != 12 || len(rlcp) != 12 {
		t.Fatalf("order lengths %d %d", len(lrcp), len(rlcp))
	}
	if lrcp[0] != [3]int{0, 0, 0} || lrcp[3] != [3]int{0, 1, 0} {
		t.Fatalf("LRCP order: %v", lrcp[:6])
	}
	if rlcp[3] != [3]int{1, 0, 0} {
		t.Fatalf("RLCP order: %v", rlcp[:6])
	}
	// Both must enumerate the same set.
	seen := map[[3]int]bool{}
	for _, v := range lrcp {
		seen[v] = true
	}
	for _, v := range rlcp {
		if !seen[v] {
			t.Fatalf("RLCP emits %v not in LRCP", v)
		}
	}
}

func TestRLCPEnablesPrefixThumbnails(t *testing.T) {
	// Under RLCP all packets of coarse resolutions come first, so a
	// reduced-resolution decode touches only a stream prefix. We check
	// the semantic part: reduced decode equals the LRCP one.
	img := workload.Dial(128, 128, 2, 4)
	a, err := Encode(context.Background(), img, Options{Rate: 0.3, Progression: LRCP}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(context.Background(), img, Options{Rate: 0.3, Progression: RLCP}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Decode(context.Background(), a.Data, DecodeOptions{DiscardLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Decode(context.Background(), b.Data, DecodeOptions{DiscardLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !ra.Equal(rb) {
		t.Fatal("progression order changed decoded content")
	}
}

// TestInspectStructure pins Inspect's packet and framing accounting on
// untiled and tiled, MQ and HT, plain and resilient (SOP/EPH) streams.
func TestInspectStructure(t *testing.T) {
	img := workload.Dial(160, 120, 3, 4)
	for _, tiled := range []bool{false, true} {
		for _, ht := range []bool{false, true} {
			for _, resilience := range []bool{false, true} {
				opt := Options{LayerRates: []float64{0.05, 0.2}, Progression: RLCP, HT: ht, Resilience: resilience}
				if tiled {
					opt.TileW, opt.TileH = 64, 64
				}
				name := fmt.Sprintf("tiled=%v/ht=%v/resilience=%v", tiled, ht, resilience)
				t.Run(name, func(t *testing.T) {
					res, err := Encode(context.Background(), img, opt, 1)
					if err != nil {
						t.Fatal(err)
					}
					info, err := InspectLimits(res.Data, DefaultLimits())
					if err != nil {
						t.Fatal(err)
					}
					h := info.Header
					_, bodies, err := codestream.DecodeTiles(res.Data)
					if err != nil {
						t.Fatal(err)
					}
					wantPkts := len(bodies) * h.Layers * (h.Levels + 1) * h.NComp
					if len(info.Packets) != wantPkts {
						t.Fatalf("packets %d, want %d", len(info.Packets), wantPkts)
					}
					sop := 0
					if h.SOPMarkers {
						sop = 6
					}
					// Within each tile the packets, each behind its SOP
					// when present, must tile the body exactly, in
					// resolution order (RLCP).
					covered := make([]int, len(bodies))
					bodyTotal, pktTotal := 0, 0
					for i, p := range info.Packets {
						if p.Tile < 0 || p.Tile >= len(bodies) {
							t.Fatalf("packet %d in tile %d of %d", i, p.Tile, len(bodies))
						}
						if p.Bytes <= 0 {
							t.Fatalf("packet %d empty", i)
						}
						if p.Offset != covered[p.Tile] {
							t.Fatalf("packet %d (tile %d) offset %d, want %d", i, p.Tile, p.Offset, covered[p.Tile])
						}
						if i > 0 && info.Packets[i-1].Tile == p.Tile && p.Res < info.Packets[i-1].Res {
							t.Fatal("RLCP stream not resolution-ordered")
						}
						covered[p.Tile] += sop + p.Bytes
						pktTotal += p.Bytes
					}
					for i, body := range bodies {
						if covered[i] != len(body) {
							t.Fatalf("tile %d: packets cover %d of %d body bytes", i, covered[i], len(body))
						}
						bodyTotal += len(body)
					}
					// Prefix accessors are monotone.
					if info.BytesAtResolution(0) >= info.BytesAtResolution(h.Levels) {
						t.Fatal("resolution prefixes not increasing")
					}
					if info.BytesAtLayer(1) >= info.BytesAtLayer(2) {
						t.Fatal("layer prefixes not increasing")
					}
					// Band stats: the per-subband data bytes plus the
					// per-packet header overhead must tile the packets.
					bandTotal := 0
					for _, b := range info.Bands {
						if b.Bytes < 0 {
							t.Fatalf("negative band bytes: %+v", b)
						}
						bandTotal += b.Bytes
					}
					if len(info.Bands) != h.NComp*(3*h.Levels+1) {
						t.Fatalf("bands %d, want %d", len(info.Bands), h.NComp*(3*h.Levels+1))
					}
					if bandTotal+info.HeaderOverhead() != pktTotal {
						t.Fatalf("bands %d + headers %d != packets %d",
							bandTotal, info.HeaderOverhead(), pktTotal)
					}
					// Marker walk: starts SOC, ends EOC, and the framing
					// total matches the non-body bytes of the stream.
					if info.Markers[0].Name != "SOC" || info.Markers[len(info.Markers)-1].Name != "EOC" {
						t.Fatalf("marker walk: %+v", info.Markers)
					}
					framing := 0
					for _, m := range info.Markers {
						framing += m.Len
					}
					if framing != len(res.Data)-bodyTotal {
						t.Fatalf("framing %d, want %d", framing, len(res.Data)-bodyTotal)
					}
				})
			}
		}
	}
}

func TestTileGrid(t *testing.T) {
	g := TileGrid(100, 60, 40, 32)
	if len(g) != 3*2 {
		t.Fatalf("grid %v", g)
	}
	if g[2] != (Rect{X0: 80, Y0: 0, W: 20, H: 32}) {
		t.Fatalf("edge tile %+v", g[2])
	}
	if g[5] != (Rect{X0: 80, Y0: 32, W: 20, H: 28}) {
		t.Fatalf("corner tile %+v", g[5])
	}
	area := 0
	for _, r := range g {
		area += r.W * r.H
	}
	if area != 100*60 {
		t.Fatalf("tiles cover %d", area)
	}
}

func TestTiledLosslessRoundTrip(t *testing.T) {
	img := workload.Dial(200, 150, 3, 5)
	for _, tile := range []struct{ w, h int }{{64, 64}, {128, 128}, {200, 150}, {70, 40}} {
		res, err := Encode(context.Background(), img, Options{Lossless: true, TileW: tile.w, TileH: tile.h}, 1)
		if err != nil {
			t.Fatalf("tile %dx%d: %v", tile.w, tile.h, err)
		}
		got, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatalf("tile %dx%d: decode: %v", tile.w, tile.h, err)
		}
		if !img.Equal(got) {
			t.Fatalf("tile %dx%d: round trip not exact", tile.w, tile.h)
		}
	}
}

func TestTiledLossyGlobalRateControl(t *testing.T) {
	img := workload.Dial(256, 256, 7, 5)
	raw := 256 * 256 * 3
	res, err := Encode(context.Background(), img, Options{Rate: 0.1, TileW: 128, TileH: 128}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Data) > int(0.1*float64(raw)) {
		t.Fatalf("tiled stream %d over budget", len(res.Data))
	}
	got, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p := img.PSNR(got); p < 28 {
		t.Fatalf("tiled lossy PSNR %.1f", p)
	}
}

func TestTiledParallelMatchesSerial(t *testing.T) {
	img := workload.Dial(200, 200, 2, 5)
	opt := Options{Rate: 0.2, TileW: 64, TileH: 64}
	a, err := Encode(context.Background(), img, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(context.Background(), img, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Data) != string(b.Data) {
		t.Fatal("tile workers changed output bytes")
	}
}

func TestTiledReducedResolution(t *testing.T) {
	img := workload.Dial(256, 128, 9, 4)
	res, err := Encode(context.Background(), img, Options{Lossless: true, TileW: 128, TileH: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(context.Background(), res.Data, DecodeOptions{DiscardLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 64 || got.H != 32 {
		t.Fatalf("reduced tiled decode %dx%d", got.W, got.H)
	}
	// Indivisible tile size must be rejected, not garbled.
	res2, err := Encode(context.Background(), img, Options{Lossless: true, TileW: 100, TileH: 50}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(context.Background(), res2.Data, DecodeOptions{DiscardLevels: 2}); err == nil {
		t.Fatal("indivisible reduced tiled decode accepted")
	}
}

func TestTiledMultiLayer(t *testing.T) {
	img := workload.Dial(192, 192, 11, 5)
	res, err := Encode(context.Background(), img, Options{LayerRates: []float64{0.05, 0.25}, TileW: 96, TileH: 96}, 1)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := Decode(context.Background(), res.Data, DecodeOptions{MaxLayers: 1})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Decode(context.Background(), res.Data, DecodeOptions{MaxLayers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if img.PSNR(l2) <= img.PSNR(l1) {
		t.Fatal("tiled layers not progressive")
	}
}

func TestTiledVsUntiledQuality(t *testing.T) {
	// Tiling costs some efficiency but must stay in the same ballpark.
	img := workload.Dial(256, 256, 1, 5)
	u, err := Encode(context.Background(), img, Options{Rate: 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Encode(context.Background(), img, Options{Rate: 0.1, TileW: 64, TileH: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gu, _ := Decode(context.Background(), u.Data, DecodeOptions{})
	gt, err := Decode(context.Background(), tl.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pu, pt := img.PSNR(gu), img.PSNR(gt)
	if pt < pu-3 {
		t.Fatalf("tiled PSNR %.2f far below untiled %.2f", pt, pu)
	}
}

// TestRegionDecodeExact pins the Region decode to the full decode's
// crop for MQ and HT streams, lossless and at Rate 0.15, at one and two
// workers: the window is written straight from plane views into a
// window-sized image.
func TestRegionDecodeExact(t *testing.T) {
	img := workload.Dial(256, 192, 15, 5)
	for _, opt := range []Options{{Lossless: true}, {Rate: 0.15}, {Lossless: true, HT: true}, {Rate: 0.15, HT: true}} {
		res, err := Encode(context.Background(), img, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			for _, r := range []Rect{
				{X0: 0, Y0: 0, W: 32, H: 32},
				{X0: 100, Y0: 70, W: 80, H: 50},
				{X0: 200, Y0: 150, W: 56, H: 42}, // bottom-right corner
				{X0: 0, Y0: 0, W: 256, H: 192},   // whole image
			} {
				got, err := Decode(context.Background(), res.Data, DecodeOptions{Region: r, Workers: workers})
				if err != nil {
					t.Fatalf("region %+v: %v", r, err)
				}
				if got.W != r.W || got.H != r.H {
					t.Fatalf("region %+v: got %dx%d", r, got.W, got.H)
				}
				want := full.SubImage(r.X0, r.Y0, r.W, r.H)
				if !got.Equal(want) {
					t.Fatalf("lossless=%v ht=%v workers=%d region %+v: window decode differs from full-decode crop",
						opt.Lossless, opt.HT, workers, r)
				}
			}
		}
	}
}

// TestRegionDecodeTiled pins a window straddling four tiles to the
// full decode's crop, on a lossless and a lossy tiled stream, so the
// integer and the float plane views both write their tiles' parts of
// the window in place.
func TestRegionDecodeTiled(t *testing.T) {
	img := workload.Dial(200, 200, 3, 5)
	for _, opt := range []Options{{Lossless: true, TileW: 64, TileH: 64}, {Rate: 0.2, TileW: 64, TileH: 64}} {
		res, err := Encode(context.Background(), img, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			r := Rect{X0: 50, Y0: 50, W: 30, H: 90}
			got, err := Decode(context.Background(), res.Data, DecodeOptions{Region: r, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(full.SubImage(r.X0, r.Y0, r.W, r.H)) {
				t.Fatalf("lossless=%v workers=%d: tiled window decode differs from crop", opt.Lossless, workers)
			}
		}
	}
}

func TestRegionDecodeValidation(t *testing.T) {
	img := workload.Dial(64, 64, 1, 3)
	res, _ := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if _, err := Decode(context.Background(), res.Data, DecodeOptions{Region: Rect{X0: 60, Y0: 0, W: 10, H: 10}}); err == nil {
		t.Fatal("out-of-bounds region accepted")
	}
	if _, err := Decode(context.Background(), res.Data, DecodeOptions{Region: Rect{W: 8, H: 8}, DiscardLevels: 1}); err == nil {
		t.Fatal("region + discard accepted")
	}
}

func TestSixteenBitDepthRoundTrip(t *testing.T) {
	// Medical/astronomy-style 16-bit imagery must survive the
	// reversible path bit-exactly.
	img := imgmodel.NewImage(96, 64, 1, 16)
	rng := workload.NewRNG(21)
	for y := 0; y < 64; y++ {
		row := img.Comps[0].Row(y)
		for x := range row {
			row[x] = int32(x*400+y*150) % 65536
			if rng.Intn(3) == 0 {
				row[x] = int32(rng.Intn(65536))
			}
		}
	}
	res, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Depth != 16 || !img.Equal(got) {
		t.Fatal("16-bit lossless round trip failed")
	}

	// Lossy 16-bit: decent PSNR at 8:1.
	lossy, err := Encode(context.Background(), img, Options{Rate: 0.25}, 1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(context.Background(), lossy.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p := img.PSNR(back); p < 20 {
		t.Fatalf("16-bit lossy PSNR %.1f", p)
	}
}

func TestTwelveBitRGBRoundTrip(t *testing.T) {
	img := imgmodel.NewImage(48, 48, 3, 12)
	rng := workload.NewRNG(31)
	for _, p := range img.Comps {
		for y := 0; y < 48; y++ {
			row := p.Row(y)
			for x := range row {
				row[x] = int32(rng.Intn(4096))
			}
		}
	}
	res, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(got) {
		t.Fatal("12-bit RGB (RCT path) round trip failed")
	}
}

func TestParallelDecodeIdentical(t *testing.T) {
	img := workload.Dial(256, 192, 12, 5)
	for _, opt := range []Options{{Lossless: true}, {Rate: 0.1}, {Lossless: true, TileW: 96, TileH: 96}} {
		res, err := Encode(context.Background(), img, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 8} {
			par, err := Decode(context.Background(), res.Data, DecodeOptions{Workers: w})
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if !par.Equal(serial) {
				t.Fatalf("workers=%d: parallel decode differs", w)
			}
		}
	}
}

func TestParallelDecodeSurfacesErrors(t *testing.T) {
	img := workload.Dial(64, 64, 1, 3)
	res, _ := Encode(context.Background(), img, Options{Rate: 0.2}, 1)
	// Corrupt a segment length deep in the body so Tier-1 sees
	// inconsistent data but the packet parse succeeds; whether decode
	// errors or not, it must not panic with workers.
	data := append([]byte(nil), res.Data...)
	if len(data) > 200 {
		data[len(data)-50] ^= 0xFF
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("parallel decode panicked: %v", r)
			}
		}()
		_, _ = Decode(context.Background(), data, DecodeOptions{Workers: 4})
	}()
}

// TestPropRandomImagesAndOptions is the catch-all: random geometries
// and random option sets must round trip (bit exact when lossless,
// decodable and budget-respecting when lossy).
func TestPropRandomImagesAndOptions(t *testing.T) {
	rng := workload.NewRNG(12345)
	for trial := 0; trial < 30; trial++ {
		w := rng.Intn(120) + 1
		h := rng.Intn(120) + 1
		ncomp := []int{1, 3}[rng.Intn(2)]
		img := imgmodel.NewImage(w, h, ncomp, 8)
		for _, p := range img.Comps {
			for y := 0; y < h; y++ {
				row := p.Row(y)
				for x := range row {
					row[x] = int32(rng.Intn(256))
				}
			}
		}
		opt := Options{
			Lossless: rng.Intn(2) == 0,
			Levels:   rng.Intn(6),
			CBW:      []int{16, 32, 64}[rng.Intn(3)],
			CBH:      []int{16, 32, 64}[rng.Intn(3)],
		}
		if !opt.Lossless && rng.Intn(2) == 0 {
			opt.Rate = 0.1 + rng.Float()*0.4
		}
		if rng.Intn(3) == 0 {
			opt.Progression = RLCP
		}
		if rng.Intn(4) == 0 && w > 16 && h > 16 {
			opt.TileW = w/2 + 1
			opt.TileH = h/2 + 1
		}
		res, err := Encode(context.Background(), img, opt, 1)
		if err != nil {
			t.Fatalf("trial %d (%dx%dx%d %+v): encode: %v", trial, w, h, ncomp, opt, err)
		}
		got, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatalf("trial %d (%dx%dx%d %+v): decode: %v", trial, w, h, ncomp, opt, err)
		}
		if opt.Lossless {
			if !img.Equal(got) {
				t.Fatalf("trial %d (%dx%dx%d %+v): lossless mismatch", trial, w, h, ncomp, opt)
			}
		} else if opt.Rate > 0 {
			budget := int(opt.Rate * float64(w*h*ncomp))
			if len(res.Data) > budget && budget > 400 {
				t.Fatalf("trial %d: %d bytes over budget %d", trial, len(res.Data), budget)
			}
		}
	}
}

func TestVisualWeightingShiftsBytes(t *testing.T) {
	img := workload.Dial(256, 256, 17, 6)
	plain, err := Encode(context.Background(), img, Options{Rate: 0.05}, 1)
	if err != nil {
		t.Fatal(err)
	}
	vis, err := Encode(context.Background(), img, Options{Rate: 0.05, VisualWeighting: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Count kept passes in the finest HH band vs the coarse bands.
	passesIn := func(res *Result, fine bool) int {
		n := 0
		for i, j := range res.Jobs {
			isFine := j.Band.Orient != 0 && j.Band.Level == 1
			if isFine == fine {
				n += res.Keep[i]
			}
		}
		return n
	}
	if passesIn(vis, true) >= passesIn(plain, true) {
		t.Fatalf("visual weighting kept %d fine-band passes vs %d plain",
			passesIn(vis, true), passesIn(plain, true))
	}
	if passesIn(vis, false) <= passesIn(plain, false) {
		t.Fatal("visual weighting should reinvest bytes in coarse bands")
	}
	// Both decode; weighted stream has (slightly) lower plain PSNR by
	// construction — it optimizes a different metric.
	gv, err := Decode(context.Background(), vis.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gp, err := Decode(context.Background(), plain.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if img.PSNR(gv) > img.PSNR(gp)+0.1 {
		t.Fatal("weighted stream should not beat MSE-optimal on PSNR")
	}
	if img.PSNR(gv) < img.PSNR(gp)-6 {
		t.Fatalf("weighted PSNR collapsed: %.1f vs %.1f", img.PSNR(gv), img.PSNR(gp))
	}
}

func TestVisualWeightingLosslessUnaffected(t *testing.T) {
	img := workload.Dial(96, 96, 4, 3)
	a, _ := Encode(context.Background(), img, Options{Lossless: true}, 1)
	b, _ := Encode(context.Background(), img, Options{Lossless: true, VisualWeighting: true}, 1)
	if string(a.Data) != string(b.Data) {
		t.Fatal("visual weighting must not touch the lossless path")
	}
}

func TestResilienceRoundTripClean(t *testing.T) {
	img := workload.Dial(160, 120, 19, 4)
	res, err := Encode(context.Background(), img, Options{Lossless: true, Resilience: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(got) {
		t.Fatal("resilient stream not bit exact when undamaged")
	}
	if _, err := InspectLimits(res.Data, DefaultLimits()); err != nil {
		t.Fatalf("inspect on resilient stream: %v", err)
	}
}

func TestResilienceSurvivesPacketCorruption(t *testing.T) {
	img := workload.Dial(192, 192, 23, 5)
	res, err := Encode(context.Background(), img, Options{Rate: 0.3, Resilience: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Find the third SOP marker in the stream and trash the packet
	// header bytes right after it.
	data := append([]byte(nil), res.Data...)
	seen := 0
	for i := 0; i+8 < len(data); i++ {
		if data[i] == 0xFF && data[i+1] == 0x91 && data[i+2] == 0 && data[i+3] == 4 {
			seen++
			if seen == 3 {
				for j := i + 6; j < i+14 && j < len(data); j++ {
					data[j] = 0x55
				}
				break
			}
		}
	}
	if seen < 3 {
		t.Fatal("stream has no SOP markers")
	}
	// A strict decode demands a complete stream, so the lost packet
	// fails it; the best-effort decode resyncs on the next SOP.
	var fe *FormatError
	if _, err := Decode(context.Background(), data, DecodeOptions{}); !errors.As(err, &fe) {
		t.Fatalf("strict decode of a damaged stream: got %v, want *FormatError", err)
	}
	got, _, err := DecodeResilient(context.Background(), data, DecodeOptions{})
	if err != nil {
		t.Fatalf("resilient decode failed outright: %v", err)
	}
	if p := img.PSNR(got); p < 12 {
		t.Fatalf("recovered image unusable: %.1f dB", p)
	}

	// The same stream without resilience must not silently succeed
	// with the identical corruption pattern applied to its body.
	plain, err := Encode(context.Background(), img, Options{Rate: 0.3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pd := append([]byte(nil), plain.Data...)
	// Corrupt the start of the third packet's header region (no
	// markers to find, so corrupt at a similar relative offset).
	off := len(pd) / 3
	for j := off; j < off+8; j++ {
		pd[j] = 0x55
	}
	if dec, err := Decode(context.Background(), pd, DecodeOptions{}); err == nil {
		// Decoding may still "succeed" (MQ absorbs garbage), but then
		// the reconstruction must be degraded rather than silently
		// perfect.
		if img.PSNR(dec) > 60 {
			t.Fatal("corruption had no effect on non-resilient stream?")
		}
	}
}

func TestResilienceDetectsHeaderCorruptionViaEPH(t *testing.T) {
	// With SOP+EPH, a corrupted packet header fails the EPH check and
	// the packet is dropped at a marker boundary instead of the body
	// bytes being misattributed.
	img := workload.Dial(128, 128, 29, 5)
	res, err := Encode(context.Background(), img, Options{Rate: 0.3, Resilience: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := InspectLimits(res.Data, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if info.Header == nil || !info.Header.SOPMarkers {
		t.Fatal("resilient header flag lost")
	}
	got, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if img.PSNR(got) < 25 {
		t.Fatal("clean resilient stream degraded")
	}
}
