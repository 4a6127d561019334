package codec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"j2kcell/internal/faults"
	"j2kcell/internal/obs"
	"j2kcell/internal/workload"
)

// goroutineCount waits for transient goroutines (GC, finished workers)
// to drain and returns a stable count; used to pin "no leak".
func goroutineCount() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m <= n {
			return m
		}
		n = m
	}
	return n
}

// faultOp is one codec operation the injection matrix drives, with the
// stages its pipeline actually enters.
type faultOp struct {
	name   string
	stages []string
	run    func(workers int) error
}

// TestFaultInjectionMatrix arms a fault — panic and injected error —
// in every stage of every operation, at every worker width, and
// requires each run to fail cleanly with a *FaultError naming the
// armed stage: no escaped panic, no hang, no goroutine leak, and the
// pools still produce byte-identical output afterwards.
func TestFaultInjectionMatrix(t *testing.T) {
	img := workload.Dial(128, 128, 9, 4)
	losslessOpt := Options{Lossless: true}
	rateOpt := Options{Rate: 0.2}
	tiledOpt := Options{Rate: 0.3, TileW: 64, TileH: 64}

	htOpt := Options{Lossless: true, HT: true}
	htRateOpt := Options{Rate: 0.2, HT: true}

	base, err := Encode(context.Background(), img, losslessOpt, 1)
	if err != nil {
		t.Fatal(err)
	}
	htSrc, err := Encode(context.Background(), img, htOpt, 1)
	if err != nil {
		t.Fatal(err)
	}
	htRateSrc, err := Encode(context.Background(), img, htRateOpt, 1)
	if err != nil {
		t.Fatal(err)
	}
	decSrc, err := Encode(context.Background(), img, rateOpt, 1)
	if err != nil {
		t.Fatal(err)
	}
	tiledSrc, err := Encode(context.Background(), img, tiledOpt, 1)
	if err != nil {
		t.Fatal(err)
	}

	ops := []faultOp{
		{
			name:   "encode-lossless",
			stages: []string{"mct", "dwt-v", "dwt-h", "t1"},
			run: func(w int) error {
				_, err := Encode(context.Background(), img, losslessOpt, w)
				return err
			},
		},
		{
			name:   "encode-lossy-rate",
			stages: []string{"mct", "dwt-v", "dwt-h", "t1", "rate"},
			run: func(w int) error {
				_, err := Encode(context.Background(), img, rateOpt, w)
				return err
			},
		},
		{
			name:   "encode-tiled",
			stages: []string{"tile", "mct", "dwt-v", "dwt-h", "t1"},
			run: func(w int) error {
				_, err := Encode(context.Background(), img, tiledOpt, w)
				return err
			},
		},
		{
			name:   "decode-lossy",
			stages: []string{"t1", "idwt-h", "idwt-v", "imct"},
			run: func(w int) error {
				_, err := Decode(context.Background(), decSrc.Data, DecodeOptions{Workers: w})
				return err
			},
		},
		{
			name:   "decode-lossless",
			stages: []string{"t1", "idwt-h", "idwt-v", "imct"},
			run: func(w int) error {
				_, err := Decode(context.Background(), base.Data, DecodeOptions{Workers: w})
				return err
			},
		},
		{
			// HT Tier-1 runs under its own stage ("t1ht"), so the coder
			// swap carries its own fault injection point on both sides.
			name:   "encode-ht",
			stages: []string{"mct", "dwt-v", "dwt-h", "t1ht"},
			run: func(w int) error {
				_, err := Encode(context.Background(), img, htOpt, w)
				return err
			},
		},
		{
			name:   "encode-ht-rate",
			stages: []string{"t1ht", "rate"},
			run: func(w int) error {
				_, err := Encode(context.Background(), img, htRateOpt, w)
				return err
			},
		},
		{
			name:   "decode-ht",
			stages: []string{"t1ht", "idwt-h", "idwt-v", "imct"},
			run: func(w int) error {
				_, err := Decode(context.Background(), htSrc.Data, DecodeOptions{Workers: w})
				return err
			},
		},
		{
			name:   "decode-ht-lossy",
			stages: []string{"t1ht", "idwt-h", "idwt-v", "imct"},
			run: func(w int) error {
				_, err := Decode(context.Background(), htRateSrc.Data, DecodeOptions{Workers: w})
				return err
			},
		},
		{
			// Tiled decode: faults in the tile queue itself, and in the
			// inner per-tile stages (whose *FaultError must pass through
			// the tile queue's latch unwrapped).
			name:   "decode-tiled",
			stages: []string{"tile", "t1", "idwt-h", "idwt-v", "imct"},
			run: func(w int) error {
				_, err := Decode(context.Background(), tiledSrc.Data, DecodeOptions{Workers: w})
				return err
			},
		},
	}

	before := goroutineCount()
	for _, op := range ops {
		// Tier-1 decode jobs write final coefficients, so no decode
		// enters a plane-zeroing or dequantization stage: faults armed
		// there never fire and the decode succeeds.
		if strings.HasPrefix(op.name, "decode") {
			for _, stage := range []string{"zero", "deq"} {
				faults.Arm(stage, 1, faults.Error)
				err := op.run(2)
				fired := faults.Fired()
				faults.Disarm()
				if fired != 0 || err != nil {
					t.Fatalf("%s: fault armed in %q fired %d times, err %v", op.name, stage, fired, err)
				}
			}
		}
		for _, stage := range op.stages {
			for _, workers := range []int{1, 2, 8} {
				for _, mode := range []faults.Mode{faults.Panic, faults.Error} {
					name := fmt.Sprintf("%s/%s/w%d/mode%d", op.name, stage, workers, mode)
					faults.Arm(stage, 2, mode)
					err := op.run(workers)
					fired := faults.Fired()
					faults.Disarm()
					if fired != 1 {
						t.Fatalf("%s: fault fired %d times, want 1", name, fired)
					}
					var fe *FaultError
					if !errors.As(err, &fe) {
						t.Fatalf("%s: got %v (%T), want *FaultError", name, err, err)
					}
					if fe.Stage != stage {
						t.Fatalf("%s: FaultError.Stage = %q, want %q", name, fe.Stage, stage)
					}
				}
			}
		}
	}

	// Leak pin: every aborted run must have joined its workers.
	if after := goroutineCount(); after > before+2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}

	// Pool-consistency pin: the pools that recycled through dozens of
	// aborted encodes must still serve byte-identical output.
	again, err := Encode(context.Background(), img, losslessOpt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.Data, again.Data) {
		t.Fatal("encode output changed after fault matrix — pools corrupted")
	}
}

// TestBestEffortDemotesTier1Faults extends the fault matrix with the
// best-effort rows: a panic or injected error in one Tier-1 job must
// demote to the loss of exactly one code block — sibling blocks decode
// pixel-identical to the undamaged reference — with the fault's
// stage/lane/job coordinates carried into the damage report instead of
// being dropped at the first-error latch.
func TestBestEffortDemotesTier1Faults(t *testing.T) {
	img := workload.Dial(128, 128, 9, 4)
	res, err := Encode(context.Background(), img, Options{Lossless: true, Resilience: true, CBW: 16, CBH: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tasks, _ := untiledTasks(t, res.Data, DecodeOptions{})
	for _, mode := range []faults.Mode{faults.Panic, faults.Error} {
		for _, workers := range []int{1, 2, 8} {
			name := fmt.Sprintf("t1/w%d/mode%d/best-effort", workers, mode)
			faults.Arm("t1", 2, mode)
			dec, rep := decodeResilient(t, res.Data, DecodeOptions{Workers: workers})
			fired := faults.Fired()
			faults.Disarm()
			if fired != 1 {
				t.Fatalf("%s: fault fired %d times, want 1", name, fired)
			}
			if rep.LostBlocks != 1 {
				t.Fatalf("%s: %d blocks lost, want the single faulted one: %v", name, rep.LostBlocks, rep)
			}
			if len(rep.Tiles) != 1 {
				t.Fatalf("%s: %d damaged tiles, want 1", name, len(rep.Tiles))
			}
			td := rep.Tiles[0]
			if len(td.Faults) != 1 || td.Faults[0].Stage != "t1" || td.Faults[0].Job < 0 {
				t.Fatalf("%s: fault coordinates not propagated into report: %+v", name, td.Faults)
			}
			if rep.LostPackets != 0 || rep.Truncated {
				t.Fatalf("%s: unrelated damage reported: %v", name, rep)
			}
			// Each task is its own job, so one worker's second t1 entry
			// is task 1: the second data block in (component, band,
			// raster) order.
			if lb, tk := td.LostBlocks[0], tasks[1]; workers == 1 &&
				(td.Faults[0].Job != 1 || lb.Comp != tk.c || lb.Band != tk.bi || lb.GX != tk.gx || lb.GY != tk.gy) {
				t.Fatalf("%s: lost %+v at job %d, want task 1 %+v", name, lb, td.Faults[0].Job, tk)
			}
			// Sibling blocks: every pixel outside the lost block's
			// region matches the undamaged decode exactly.
			reg := td.Region
			if reg.W <= 0 || reg.H <= 0 {
				t.Fatalf("%s: lost block has empty region", name)
			}
			for c := range ref.Comps {
				for y := 0; y < ref.H; y++ {
					rrow, drow := ref.Comps[c].Row(y), dec.Comps[c].Row(y)
					for x := 0; x < ref.W; x++ {
						in := x >= reg.X0 && x < reg.X0+reg.W && y >= reg.Y0 && y < reg.Y0+reg.H
						if !in && rrow[x] != drow[x] {
							t.Fatalf("%s: sibling pixel (%d,%d,c%d) damaged outside region %+v",
								name, x, y, c, reg)
						}
					}
				}
			}
		}
	}
}

// TestBestEffortDemotesTileFaults covers whole-tile demotion in a tiled
// best-effort decode. A panic or injected error at the tile stage
// itself (caught by the tile retry loop) or inside one tile's inverse
// transforms (returned by that tile's decode) conceals exactly that
// tile: one damaged tile whose region is the whole tile, all its
// packets lost, one fault naming the armed stage, and every pixel of
// the other tiles equal to the undamaged decode.
func TestBestEffortDemotesTileFaults(t *testing.T) {
	const size, tileSize = 128, 64
	img := workload.Dial(size, size, 9, 4)
	res, err := Encode(context.Background(), img, Options{Lossless: true, TileW: tileSize, TileH: tileSize}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A 1-worker decode runs tiles in order, each tile's stages inline
	// on the one lane, so a stage's spans inside the "tile 0" span are
	// its jobs in tile 0.
	ctx, rec := obs.WithOperation(context.Background(), "decode")
	_, _, err = DecodeResilient(ctx, res.Data, DecodeOptions{Workers: 1})
	rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.TSpans()
	var tile0 obs.TSpan
	for _, sp := range spans {
		if sp.Stage == obs.StageTile && sp.Name == "tile 0" {
			tile0 = sp
		}
	}
	for _, stage := range []obs.Stage{obs.StageTile, obs.StageIDWTHorz, obs.StageIMCT} {
		inTile0 := 0
		for _, sp := range spans {
			if sp.Stage == stage && sp.Start >= tile0.Start && sp.End <= tile0.End {
				inTile0++
			}
		}
		if inTile0 == 0 {
			t.Fatalf("%v: no jobs in tile 0", stage)
		}
		for _, mode := range []faults.Mode{faults.Panic, faults.Error} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%v/mode%d/w%d", stage, mode, workers)
				faults.Arm(stage.String(), inTile0+1, mode)
				dec, rep := decodeResilient(t, res.Data, DecodeOptions{Workers: workers})
				fired := faults.Fired()
				faults.Disarm()
				if fired != 1 {
					t.Fatalf("%s: fault fired %d times, want 1", name, fired)
				}
				if len(rep.Tiles) != 1 {
					t.Fatalf("%s: %d damaged tiles, want 1: %v", name, len(rep.Tiles), rep)
				}
				td := rep.Tiles[0]
				whole := Rect{X0: td.Index % 2 * tileSize, Y0: td.Index / 2 * tileSize, W: tileSize, H: tileSize}
				if td.Region != whole || td.TotalPackets == 0 || td.LostPackets != td.TotalPackets {
					t.Fatalf("%s: tile %d region %+v, %d/%d packets lost; want the whole tile %+v and all its packets lost",
						name, td.Index, td.Region, td.LostPackets, td.TotalPackets, whole)
				}
				if len(td.Faults) != 1 || td.Faults[0].Stage != stage.String() {
					t.Fatalf("%s: faults %+v, want one at stage %v", name, td.Faults, stage)
				}
				if workers == 1 && td.Index != 1 {
					t.Fatalf("%s: fault concealed tile %d, want tile 1", name, td.Index)
				}
				for c := range ref.Comps {
					for y := 0; y < ref.H; y++ {
						rrow, drow := ref.Comps[c].Row(y), dec.Comps[c].Row(y)
						for x := 0; x < ref.W; x++ {
							in := x >= whole.X0 && x < whole.X0+whole.W && y >= whole.Y0 && y < whole.Y0+whole.H
							if !in && rrow[x] != drow[x] {
								t.Fatalf("%s: pixel (%d,%d,c%d) outside tile %d differs from the undamaged decode",
									name, x, y, c, td.Index)
							}
						}
					}
				}
			}
		}
	}
}

// TestBestEffortDemotesHoleFaults lands a contained Tier-1 fault on a
// hole task — a zero-filled run of blocks with no data — of a
// 1-worker best-effort decode, for both coders. Concealing a hole
// zero-fills it again, so the decode loses no block, reports the one
// fault, and its pixels equal the undamaged decode's.
func TestBestEffortDemotesHoleFaults(t *testing.T) {
	img := workload.Dial(128, 128, 9, 4)
	for _, ht := range []bool{false, true} {
		res, err := Encode(context.Background(), img, Options{Rate: 0.1, HT: ht, Resilience: true, CBW: 16, CBH: 16}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tasks, ndata := untiledTasks(t, res.Data, DecodeOptions{})
		if ndata == len(tasks) {
			t.Fatalf("ht=%v: stream has no holes", ht)
		}
		stage := "t1"
		if ht {
			stage = "t1ht"
		}
		for _, mode := range []faults.Mode{faults.Panic, faults.Error} {
			name := fmt.Sprintf("%s/mode%d/hole", stage, mode)
			// One worker enters the stage in task order, so entry
			// ndata+1 is the first hole.
			faults.Arm(stage, ndata+1, mode)
			dec, rep := decodeResilient(t, res.Data, DecodeOptions{Workers: 1})
			fired := faults.Fired()
			faults.Disarm()
			if fired != 1 {
				t.Fatalf("%s: fault fired %d times, want 1", name, fired)
			}
			if rep.LostBlocks != 0 || rep.LostPackets != 0 || rep.Truncated || len(rep.Tiles) != 1 {
				t.Fatalf("%s: want no lost data and one damaged tile: %v", name, rep)
			}
			if f := rep.Tiles[0].Faults; len(f) != 1 || f[0].Stage != stage || f[0].Job != ndata {
				t.Fatalf("%s: faults %+v, want one at job %d", name, f, ndata)
			}
			for c := range ref.Comps {
				if !slices.Equal(ref.Comps[c].Data, dec.Comps[c].Data) {
					t.Fatalf("%s: component %d differs from the undamaged decode", name, c)
				}
			}
		}
	}
}

// TestFaultErrorCarriesCoordinates checks the located fields and the
// unwrap chain of both fault flavors.
func TestFaultErrorCarriesCoordinates(t *testing.T) {
	img := workload.Dial(96, 96, 3, 4)

	faults.Arm("t1", 3, faults.Error)
	_, err := Encode(context.Background(), img, Options{Lossless: true}, 2)
	faults.Disarm()
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FaultError", err)
	}
	if fe.Job < 0 || fe.Lane < 0 {
		t.Errorf("missing coordinates: lane=%d job=%d", fe.Lane, fe.Job)
	}
	var inj *faults.InjectedError
	if !errors.As(err, &inj) {
		t.Errorf("injected error not reachable via Unwrap: %v", err)
	}

	faults.Arm("dwt-h", 1, faults.Panic)
	_, err = Encode(context.Background(), img, Options{Lossless: true}, 2)
	faults.Disarm()
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FaultError", err)
	}
	if fe.Panic == nil || len(fe.Stack) == 0 {
		t.Errorf("panic fault lost its value or stack: %+v", fe)
	}
}

// TestRateFaultIsLocated checks that both fault flavors raised in PCRD
// rate control, outside any pipeline job, reach the API as the same
// *FaultError a pipeline stage produces: an injected error in Err, a
// panic with its value and stack.
func TestRateFaultIsLocated(t *testing.T) {
	img := workload.Dial(96, 96, 3, 4)
	for _, mode := range []faults.Mode{faults.Error, faults.Panic} {
		faults.Arm("rate", 1, mode)
		_, err := Encode(context.Background(), img, Options{Rate: 0.2}, 2)
		faults.Disarm()
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Stage != "rate" {
			t.Fatalf("mode %d: got %v, want a rate *FaultError", mode, err)
		}
		var inj *faults.InjectedError
		if got, want := errors.As(err, &inj), mode == faults.Error; got != want {
			t.Errorf("mode %d: injected error reachable via Unwrap = %v, want %v", mode, got, want)
		}
		if got, want := fe.Panic != nil && len(fe.Stack) > 0, mode == faults.Panic; got != want {
			t.Errorf("mode %d: panic value and stack present = %v, want %v: %+v", mode, got, want, fe)
		}
	}
}

// TestSequentialEncodeContainsFaults pins the workers=1 inline path:
// containment does not depend on goroutines existing.
func TestSequentialEncodeContainsFaults(t *testing.T) {
	img := workload.Dial(64, 64, 2, 4)
	faults.Arm("mct", 1, faults.Panic)
	_, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
	faults.Disarm()
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FaultError", err)
	}
	if fe.Stage != "mct" {
		t.Fatalf("Stage = %q, want mct", fe.Stage)
	}
}

// TestPoolsSurviveFaultedEncodes pins steady-state allocations: an
// encode aborted mid-stage returns its pooled planes, so allocations
// per encode stay in the same band afterwards.
func TestPoolsSurviveFaultedEncodes(t *testing.T) {
	img := workload.Dial(128, 128, 5, 4)
	opt := Options{Lossless: true}
	encode := func() {
		if _, err := Encode(context.Background(), img, opt, 2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		encode() // warm the plane and scratch pools
	}
	before := testing.AllocsPerRun(5, encode)

	for i := 0; i < 5; i++ {
		faults.Arm("t1", 1, faults.Panic)
		if _, err := Encode(context.Background(), img, opt, 2); err == nil {
			t.Fatal("faulted encode returned nil error")
		}
		faults.Disarm()
	}

	encode() // one refill pass after the aborts
	after := testing.AllocsPerRun(5, encode)
	// sync.Pool interplay with GC makes exact pins flaky; the defect
	// this guards against (planes never returned on the abort path)
	// would at least double the count.
	if after > before*2+200 {
		t.Errorf("allocations grew after faulted encodes: %.0f -> %.0f", before, after)
	}
}
