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
						ctx, op := obs.WithOperation(context.Background(), "parity")
						res, err := EncodeParallelContext(ctx, img, opt, w)
						op.Finish()
						if err != nil {
							t.Fatal(err)
						}
						rec := op.Recorder()
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
// work to named stages: the header parse, the Tier-2 packet parse, the
// plane clearing, Tier-1, both inverse DWT directions and the inverse
// component transform, plus dequantization when lossy. It covers both
// coders, tiled and untiled streams, and the strict and best-effort
// decoders.
func TestDecodeStageCoverage(t *testing.T) {
	img := workload.Dial(80, 64, 903, 4)
	for _, lossless := range []bool{true, false} {
		for _, ht := range []bool{false, true} {
			for _, tiled := range []bool{false, true} {
				opt := Options{Lossless: lossless, HT: ht}
				if tiled {
					opt.TileW, opt.TileH = 32, 32
				}
				res, err := EncodeParallel(img, opt, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, bestEffort := range []bool{false, true} {
					name := fmt.Sprintf("lossless=%v/ht=%v/tiled=%v/besteffort=%v", lossless, ht, tiled, bestEffort)
					t.Run(name, func(t *testing.T) {
						ctx, op := obs.WithOperation(context.Background(), "coverage")
						_, err := DecodeWithContext(ctx, res.Data, DecodeOptions{Workers: 2, BestEffort: bestEffort})
						op.Finish()
						if err != nil {
							t.Fatal(err)
						}
						seen := map[obs.Stage]bool{}
						for _, sp := range op.Recorder().TSpans() {
							seen[sp.Stage] = true
						}
						want := []obs.Stage{obs.StageParse, obs.StageT2, obs.StageZero,
							obs.StageIDWTHorz, obs.StageIDWTVert, obs.StageIMCT}
						if !lossless {
							want = append(want, obs.StageDeq)
						}
						for _, st := range want {
							if !seen[st] {
								t.Errorf("no %q span recorded", st)
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
