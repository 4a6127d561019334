package codec

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/obs"
	"j2kcell/internal/workload"
)

// TestDecodeWritesEveryCoefficient pins the decode's write-once
// contract: Tier-1 jobs write every coefficient the inverse transforms
// read — decoded blocks and zero-filled holes alike — so no pooled
// plane needs clearing first. Every plane the pools hand out is
// poisoned (integer 0x5A5A5A5A, float NaN, stride padding included),
// and each decode must still equal the same decode on zero-filled
// pools. It covers lossless/lossy × MQ/HT × untiled/tiled streams;
// full, Region, DiscardLevels and MaxLayers decodes; a best-effort
// decode of a damaged stream with its damage report; and workers
// {1, 2}.
func TestDecodeWritesEveryCoefficient(t *testing.T) {
	defer imgmodel.ClearPoolFill()
	img := workload.Dial(96, 80, 31, 4)
	decodes := []struct {
		name string
		dopt DecodeOptions
	}{
		{"full", DecodeOptions{}},
		{"region", DecodeOptions{Region: Rect{X0: 13, Y0: 21, W: 40, H: 30}}},
		{"discard2", DecodeOptions{DiscardLevels: 2}},
		{"layers1", DecodeOptions{MaxLayers: 1}},
	}
	for _, lossless := range []bool{true, false} {
		for _, ht := range []bool{false, true} {
			for _, tiled := range []bool{false, true} {
				// Small blocks and a low first layer leave many blocks
				// without data, so the streams are full of holes. The
				// damaged stream carries the resilience tools.
				opt := Options{Lossless: lossless, HT: ht, CBW: 16, CBH: 16}
				if !lossless {
					opt.LayerRates = []float64{0.02, 0.08, 0.3}
				}
				if tiled {
					opt.TileW, opt.TileH = 32, 32
				}
				res, err := Encode(context.Background(), img, opt, 1)
				if err != nil {
					t.Fatal(err)
				}
				opt.Resilience = true
				resilient, err := Encode(context.Background(), img, opt, 1)
				if err != nil {
					t.Fatal(err)
				}
				damaged := append([]byte(nil), resilient.Data...)
				for i := len(damaged) / 2; i < len(damaged); i += 97 {
					damaged[i] ^= 0x5C
				}
				class := fmt.Sprintf("lossless=%v/ht=%v/tiled=%v", lossless, ht, tiled)
				for _, workers := range []int{1, 2} {
					for _, d := range decodes {
						dopt := d.dopt
						dopt.Workers = workers
						decode := func() (*imgmodel.Image, error) {
							return Decode(context.Background(), res.Data, dopt)
						}
						checkPoisonedEqualsClean(t, fmt.Sprintf("%s/%s/w%d", class, d.name, workers), decode)
					}
					decodeDamaged := func() (*imgmodel.Image, *DamageReport, error) {
						return DecodeResilient(context.Background(), damaged, DecodeOptions{Workers: workers})
					}
					name := fmt.Sprintf("%s/damaged/w%d", class, workers)
					imgmodel.SetPoolFill(0, 0)
					want, wantRep, err := decodeDamaged()
					if err != nil {
						t.Fatalf("%s: clean pools: %v", name, err)
					}
					poisonPools()
					got, gotRep, err := decodeDamaged()
					imgmodel.ClearPoolFill()
					if err != nil {
						t.Fatalf("%s: poisoned pools: %v", name, err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s: poisoned pools change the decoded image", name)
					}
					sortLosses(gotRep)
					sortLosses(wantRep)
					if !reflect.DeepEqual(gotRep, wantRep) {
						t.Fatalf("%s: poisoned pools change the damage report:\n%v\nwant\n%v", name, gotRep, wantRep)
					}
				}
			}
		}
	}
}

// poisonPools fills every plane the pools hand out from here on with
// sentinels no decoder writes.
func poisonPools() { imgmodel.SetPoolFill(0x5A5A5A5A, float32(math.NaN())) }

// checkPoisonedEqualsClean runs decode on zero-filled and on poisoned
// pools and requires identical images.
func checkPoisonedEqualsClean(t *testing.T, name string, decode func() (*imgmodel.Image, error)) {
	t.Helper()
	imgmodel.SetPoolFill(0, 0)
	want, err := decode()
	if err != nil {
		t.Fatalf("%s: clean pools: %v", name, err)
	}
	poisonPools()
	got, err := decode()
	imgmodel.ClearPoolFill()
	if err != nil {
		t.Fatalf("%s: poisoned pools: %v", name, err)
	}
	if !got.Equal(want) {
		t.Fatalf("%s: poisoned pools change the decoded image", name)
	}
}

// sortLosses puts each tile's lost blocks in a canonical order: with
// more than one worker they are recorded in completion order.
func sortLosses(rep *DamageReport) {
	for i := range rep.Tiles {
		slices.SortFunc(rep.Tiles[i].LostBlocks, func(a, b BlockLoss) int {
			if a.Comp != b.Comp {
				return a.Comp - b.Comp
			}
			if a.Band != b.Band {
				return a.Band - b.Band
			}
			if a.GY != b.GY {
				return a.GY - b.GY
			}
			return a.GX - b.GX
		})
	}
}

// untiledTasks lists the Tier-1 tasks decodeTile runs for an untiled
// stream under dopt (no MaxLayers or DiscardLevels), with the number
// of data tasks.
func untiledTasks(t *testing.T, data []byte, dopt DecodeOptions) ([]blockTask, int) {
	t.Helper()
	h, bodies, _, err := parseStream(data, dopt.limits())
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 1 {
		t.Fatalf("%d tile parts, want an untiled stream", len(bodies))
	}
	p := NewPipelineContext(context.Background(), 1)
	bands := dwt.Layout(h.W, h.H, h.Levels)
	var region Rect
	if dopt.regionSet() {
		region = dopt.Region
	}
	accs, _, err := parseTile(p, h, bands, bodies[0], h.Layers, h.Levels, region, &tileDamage{})
	if err != nil {
		t.Fatal(err)
	}
	return tileTasks(h, bands, accs)
}

// TestDecodeOneJobPerTask pins Tier-1 decode's job shape to the
// encoder's: every task tileTasks lists — a block with data or a hole
// run — is one work-queue job, so a 2-worker decode records exactly
// one t1 (MQ) or t1ht (HT) span per task. The streams are lossy at
// Rate 0.1, so they have holes, and the Region decode turns blocks
// outside the region into holes too.
func TestDecodeOneJobPerTask(t *testing.T) {
	img := workload.Dial(256, 256, 17, 4)
	for _, c := range []struct {
		name string
		opt  Options
		dopt DecodeOptions
	}{
		{"mq", Options{Rate: 0.1}, DecodeOptions{}},
		{"ht", Options{Rate: 0.1, HT: true}, DecodeOptions{}},
		{"mq-region", Options{Rate: 0.1, CBW: 16, CBH: 16}, DecodeOptions{Region: Rect{X0: 40, Y0: 72, W: 48, H: 32}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := Encode(context.Background(), img, c.opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			tasks, ndata := untiledTasks(t, res.Data, c.dopt)
			if ndata == 0 || ndata == len(tasks) {
				t.Fatalf("%d tasks, %d with data: want both blocks and holes", len(tasks), ndata)
			}
			if _, full := untiledTasks(t, res.Data, DecodeOptions{}); c.dopt.regionSet() && ndata >= full {
				t.Fatalf("region keeps %d of %d data blocks: want fewer", ndata, full)
			}
			dopt := c.dopt
			dopt.Workers = 2
			ctx, rec := obs.WithOperation(context.Background(), "decode")
			_, err = Decode(ctx, res.Data, dopt)
			rec.Finish()
			if err != nil {
				t.Fatal(err)
			}
			spans := 0
			for _, sp := range rec.TSpans() {
				if sp.Stage == obs.StageT1 || sp.Stage == obs.StageT1HT {
					spans++
				}
			}
			if spans != len(tasks) {
				t.Fatalf("%d Tier-1 spans for %d tasks", spans, len(tasks))
			}
		})
	}
}
