package codec

import (
	"context"
	"fmt"
	"testing"

	"j2kcell/internal/obs"
	"j2kcell/internal/workload"
)

// TestCounterParity pins the per-operation workload counters to the
// blocks the encode returns: every Tier-1, HT and hull counter must be
// derivable from Result.Blocks, and the counters that measure work
// rather than scheduling (MQ renormalizations, DWT traffic, PCRD
// probes) must not depend on the worker count. It covers both coders,
// tiled and untiled streams, and the unconstrained, single-rate and
// layered rate-control paths.
func TestCounterParity(t *testing.T) {
	img := workload.Dial(80, 64, 901, 4)
	kinds := []struct {
		name string
		opt  Options
	}{
		{"lossless", Options{Lossless: true}},
		{"lossy", Options{}},
		{"lossy-rate", Options{Rate: 0.1}},
		{"lossy-layers", Options{LayerRates: []float64{0.05, 0.2}}},
	}
	stable := []obs.Counter{obs.CtrMQRenorms, obs.CtrDWTBytesMoved, obs.CtrRateProbes}
	for _, k := range kinds {
		for _, ht := range []bool{false, true} {
			for _, tiled := range []bool{false, true} {
				opt := k.opt
				opt.HT = ht
				if tiled {
					opt.TileW, opt.TileH = 32, 32
				}
				t.Run(fmt.Sprintf("%s/ht=%v/tiled=%v", k.name, ht, tiled), func(t *testing.T) {
					var ref []int64
					for _, w := range []int{1, 2, 8} {
						ctx, rec := obs.WithOperation(context.Background(), "parity")
						res, err := Encode(ctx, img, opt, w)
						rec.Finish()
						if err != nil {
							t.Fatal(err)
						}
						want := map[obs.Counter]int64{}
						for _, b := range res.Blocks {
							want[obs.CtrT1Scanned] += int64(b.TotalScanned())
							want[obs.CtrT1Coded] += int64(b.TotalCoded())
							if b.NumBPS == 0 {
								continue
							}
							want[obs.CtrT1Blocks]++
							if b.Mode.IsHT() {
								want[obs.CtrHTBlocks]++
								want[obs.CtrHTBytes] += int64(len(b.Data))
							}
						}
						if opt.layerRates() != nil {
							want[obs.CtrHulls] = int64(len(res.Blocks))
						}
						for _, c := range []obs.Counter{obs.CtrT1Blocks, obs.CtrT1Scanned, obs.CtrT1Coded,
							obs.CtrHTBlocks, obs.CtrHTBytes, obs.CtrHulls} {
							if got := rec.Counter(c); got != want[c] {
								t.Errorf("workers=%d: %s = %d, want %d", w, c, got, want[c])
							}
						}
						got := make([]int64, len(stable))
						for i, c := range stable {
							got[i] = rec.Counter(c)
						}
						if got[1] == 0 {
							t.Fatalf("workers=%d: no DWT traffic counted", w)
						}
						if ref == nil {
							ref = got
							continue
						}
						for i, c := range stable {
							if got[i] != ref[i] {
								t.Errorf("workers=%d: %s = %d, want %d (workers=1)", w, c, got[i], ref[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestDecodeStageCoverage requires every decode class to attribute its
// work to named stages: the header parse, the Tier-2 packet parse,
// Tier-1, both inverse DWT directions and the inverse component
// transform. Tier-1 jobs write final coefficients, so no decode may
// record a plane-zeroing or dequantization span. It covers both coders,
// tiled and untiled streams, and the strict and best-effort decoders.
func TestDecodeStageCoverage(t *testing.T) {
	img := workload.Dial(80, 64, 903, 4)
	for _, lossless := range []bool{true, false} {
		for _, ht := range []bool{false, true} {
			for _, tiled := range []bool{false, true} {
				opt := Options{Lossless: lossless, HT: ht}
				if tiled {
					opt.TileW, opt.TileH = 32, 32
				}
				res, err := Encode(context.Background(), img, opt, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, bestEffort := range []bool{false, true} {
					name := fmt.Sprintf("lossless=%v/ht=%v/tiled=%v/besteffort=%v", lossless, ht, tiled, bestEffort)
					t.Run(name, func(t *testing.T) {
						ctx, rec := obs.WithOperation(context.Background(), "coverage")
						var err error
						if bestEffort {
							_, _, err = DecodeResilient(ctx, res.Data, DecodeOptions{Workers: 2})
						} else {
							_, err = Decode(ctx, res.Data, DecodeOptions{Workers: 2})
						}
						rec.Finish()
						if err != nil {
							t.Fatal(err)
						}
						seen := map[obs.Stage]bool{}
						for _, sp := range rec.TSpans() {
							seen[sp.Stage] = true
						}
						want := []obs.Stage{obs.StageParse, obs.StageT2,
							obs.StageIDWTHorz, obs.StageIDWTVert, obs.StageIMCT}
						for _, st := range want {
							if !seen[st] {
								t.Errorf("no %q span recorded", st)
							}
						}
						for _, st := range []obs.Stage{obs.StageZero, obs.StageDeq} {
							if seen[st] {
								t.Errorf("%q span recorded", st)
							}
						}
						if !seen[obs.StageT1] && !seen[obs.StageT1HT] {
							t.Error("no Tier-1 span recorded")
						}
					})
				}
			}
		}
	}
}

// dwtTraffic is the closed form of the dwt_bytes_moved counter for a
// walk over levels [from, levels) of every tile of grid: each level a
// tile's planes reach moves 8 bytes (one read, one write of a 4-byte
// sample) per sample of its lw×lh region per active phase — vertical
// when lh > 1, horizontal when lw > 1 — per component.
func dwtTraffic(grid []Rect, ncomp, levels, from int) int64 {
	var n int64
	for _, r := range grid {
		for l := from; l < levels; l++ {
			lw, lh := r.W, r.H
			for i := 0; i < l; i++ {
				lw, lh = (lw+1)/2, (lh+1)/2
			}
			phases := 0
			if lh > 1 {
				phases++
			}
			if lw > 1 {
				phases++
			}
			n += int64(ncomp) * 8 * int64(lw) * int64(lh) * int64(phases)
		}
	}
	return n
}

// TestDWTTrafficClosedForm pins the level walks' structure through the
// dwt_bytes_moved counter: an encode moves exactly the closed form of
// every level of every tile, a full decode the same, a DiscardLevels: 2
// decode the closed form of the levels it synthesizes, and a Region
// decode no more than the full decode — at 1 and 2 workers, lossless
// and lossy, untiled and tiled.
func TestDWTTrafficClosedForm(t *testing.T) {
	img := workload.Dial(80, 64, 905, 4)
	traffic := func(t *testing.T, run func(ctx context.Context) error) int64 {
		t.Helper()
		ctx, rec := obs.WithOperation(context.Background(), "traffic")
		err := run(ctx)
		rec.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return rec.Counter(obs.CtrDWTBytesMoved)
	}
	for _, lossless := range []bool{true, false} {
		for _, tiled := range []bool{false, true} {
			opt := Options{Lossless: lossless}
			if tiled {
				opt.TileW, opt.TileH = 32, 32
			}
			grid := TileGrid(img.W, img.H, opt.TileW, opt.TileH)
			levels := opt.WithDefaults(img.W, img.H).Levels
			full := dwtTraffic(grid, len(img.Comps), levels, 0)
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("lossless=%v/tiled=%v/workers=%d", lossless, tiled, w), func(t *testing.T) {
					var data []byte
					if got := traffic(t, func(ctx context.Context) error {
						res, err := Encode(ctx, img, opt, w)
						if err == nil {
							data = res.Data
						}
						return err
					}); got != full {
						t.Errorf("encode moved %d DWT bytes, closed form %d", got, full)
					}
					decode := func(dopt DecodeOptions) int64 {
						dopt.Workers = w
						return traffic(t, func(ctx context.Context) error {
							_, err := Decode(ctx, data, dopt)
							return err
						})
					}
					if got := decode(DecodeOptions{}); got != full {
						t.Errorf("full decode moved %d DWT bytes, closed form %d", got, full)
					}
					if got, want := decode(DecodeOptions{DiscardLevels: 2}), dwtTraffic(grid, len(img.Comps), levels, 2); got != want {
						t.Errorf("DiscardLevels: 2 decode moved %d DWT bytes, closed form %d", got, want)
					}
					if got := decode(DecodeOptions{Region: Rect{X0: 20, Y0: 10, W: 24, H: 20}}); got <= 0 || got > full {
						t.Errorf("Region decode moved %d DWT bytes, want (0, %d]", got, full)
					}
				})
			}
		}
	}
}
