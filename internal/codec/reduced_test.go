package codec

import (
	"context"
	"fmt"
	"testing"

	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/mct"
	"j2kcell/internal/quant"
	"j2kcell/internal/workload"
)

// serialReduced is the plane-at-a-time reduced-resolution
// reconstruction, kept as the reference for DiscardLevels decodes:
// dequantize every band into fresh float planes, undo levels
// levels-1..discard with dwt.InverseLevels53/97, crop the top-left
// corner, then the inverse MCT (or unshift) and the clamp row by row.
func serialReduced(planes []*imgmodel.Plane, opt Options, depth, discard int) *imgmodel.Image {
	tw, th := planes[0].W, planes[0].H
	rw, rh := dwt.LevelDims(tw, th, discard)
	img := imgmodel.NewImage(rw, rh, len(planes), depth)
	useMCT := len(planes) == 3
	maxv := int32(1)<<depth - 1
	clamp := func() {
		for _, p := range img.Comps {
			for y := 0; y < rh; y++ {
				for i, v := range p.Row(y) {
					p.Row(y)[i] = min(max(v, 0), maxv)
				}
			}
		}
	}
	if opt.Lossless {
		for c, p := range planes {
			dwt.InverseLevels53(p.Data, tw, th, p.Stride, opt.Levels, discard)
			for y := 0; y < rh; y++ {
				copy(img.Comps[c].Row(y), p.Row(y)[:rw])
			}
		}
		for y := 0; y < rh; y++ {
			if useMCT {
				mct.InverseRCTRow(img.Comps[0].Row(y), img.Comps[1].Row(y), img.Comps[2].Row(y), depth)
			} else {
				for c := range img.Comps {
					mct.UnshiftRow(img.Comps[c].Row(y), depth)
				}
			}
		}
		clamp()
		return img
	}
	red := make([]*imgmodel.FPlane, len(planes))
	for c, p := range planes {
		fp := imgmodel.New[float32](tw, th)
		for _, b := range dwt.Layout(tw, th, opt.Levels) {
			delta := float32(quant.StepFor(opt.BaseDelta, opt.Levels, b.Orient, b.Level))
			for y := b.Y0; y < b.Y0+b.H; y++ {
				quant.DequantizeRow(fp.Data[y*fp.Stride+b.X0:][:b.W], p.Data[y*p.Stride+b.X0:][:b.W], delta)
			}
		}
		dwt.InverseLevels97(fp.Data, tw, th, fp.Stride, opt.Levels, discard)
		red[c] = imgmodel.New[float32](rw, rh)
		for y := 0; y < rh; y++ {
			copy(red[c].Row(y), fp.Row(y)[:rw])
		}
	}
	off := float32(int32(1) << (depth - 1))
	for y := 0; y < rh; y++ {
		if useMCT {
			mct.InverseICTRow(red[0].Row(y), red[1].Row(y), red[2].Row(y),
				img.Comps[0].Row(y), img.Comps[1].Row(y), img.Comps[2].Row(y), depth)
			continue
		}
		for c := range img.Comps {
			for i, v := range red[c].Row(y) {
				v += off
				if v >= 0 {
					img.Comps[c].Row(y)[i] = int32(v + 0.5)
				} else {
					img.Comps[c].Row(y)[i] = -int32(-v + 0.5)
				}
			}
		}
	}
	clamp()
	return img
}

// TestReducedDecodeMatchesSerial requires every DiscardLevels decode to
// be pixel-identical to the serial reconstruction above, run on the
// coefficient planes the encoder coded. With every coding pass kept,
// Tier-1 returns exactly those planes (lossless, or lossy without a
// rate target), so the comparison isolates the reconstruction.
func TestReducedDecodeMatchesSerial(t *testing.T) {
	gray := imgmodel.NewImage(61, 39, 1, 8)
	rng := workload.NewRNG(5)
	for y := 0; y < gray.H; y++ {
		for x := range gray.Comps[0].Row(y) {
			gray.Comps[0].Row(y)[x] = int32((x*y)&0xFF) ^ int32(rng.Intn(16))
		}
	}
	images := map[string]*imgmodel.Image{
		"rgb-97x71":  workload.Dial(97, 71, 3, 4),
		"gray-61x39": gray,
	}
	for name, img := range images {
		for _, opt := range []Options{
			{Lossless: true, Levels: 4},
			{Lossless: true, Levels: 4, HT: true},
			{Levels: 4},
			{Levels: 4, HT: true},
		} {
			opt = opt.WithDefaults(img.W, img.H)
			res, err := Encode(context.Background(), img, opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			for discard := 1; discard <= opt.Levels; discard++ {
				t.Run(fmt.Sprintf("%s/lossless=%v/ht=%v/discard=%d", name, opt.Lossless, opt.HT, discard), func(t *testing.T) {
					got, err := Decode(context.Background(), res.Data, DecodeOptions{DiscardLevels: discard})
					if err != nil {
						t.Fatal(err)
					}
					p := NewPipeline(1)
					defer p.Close()
					var planes []*imgmodel.Plane
					if opt.Lossless {
						planes = p.MCTInt(img, opt)
						p.DWT53(planes, opt)
					} else {
						fplanes := p.MCTFloat(img, opt)
						p.DWT97(fplanes, opt)
						planes = p.QuantizePlanes(fplanes, opt)
					}
					want := serialReduced(planes, opt, img.Depth, discard)
					if !got.Equal(want) {
						t.Fatalf("reduced decode %dx%d differs from the serial reconstruction %dx%d", got.W, got.H, want.W, want.H)
					}
				})
			}
		}
	}
}
