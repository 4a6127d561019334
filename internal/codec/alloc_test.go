package codec

import (
	"context"
	"testing"

	"j2kcell/internal/codestream"
	"j2kcell/internal/obs"
	"j2kcell/internal/workload"
)

// allocBytesPerOp is the mean heap bytes one call of op allocates,
// over as many calls as testing.Benchmark runs in its default second —
// enough for the GCs of that run to empty the plane and scratch pools
// and for their refills to count toward the mean.
func allocBytesPerOp(t *testing.T, op func() error) int64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled planes at random")
	}
	var err error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N && err == nil; i++ {
			err = op()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.AllocedBytesPerOp()
}

// TestRunReusesStage pins that run drains into the pipeline's one
// reused stage: on a one-worker pipeline a run of a preallocated job
// function allocates nothing.
func TestRunReusesStage(t *testing.T) {
	p := NewPipeline(1)
	sum := 0
	job := func(i int) { sum += i }
	if got := testing.AllocsPerRun(100, func() { p.run(obs.StageMCT, 0, 8, job) }); got != 0 {
		t.Fatalf("run allocates %v times a call, want 0", got)
	}
	if sum != 101*28 {
		t.Fatalf("jobs summed to %d, want %d", sum, 101*28)
	}
}

// TestTiledEncodeCopiesNoTiles pins the tiled encode's data movement:
// each tile is read through a view of the source image and the
// codestream is written once into one buffer, so a 512² lossless
// encode in 128² tiles allocates less than the source image's own
// sample bytes (W·H·3·4 = 3 MiB), which copying the tiles out alone
// would cost. It measures about 1.3 MB an encode — the stream, the
// blocks' bytes and pass lists, and the block plans — so the bound
// leaves more than 2× for pool refills after a GC.
func TestTiledEncodeCopiesNoTiles(t *testing.T) {
	const size, bound = 512, 3_000_000
	if bound >= size*size*3*4 {
		t.Fatal("bound must stay below the source image's sample bytes")
	}
	img := workload.Dial(size, size, 5, 5)
	opt := Options{Lossless: true, TileW: 128, TileH: 128}
	for _, workers := range []int{1, 2} {
		got := allocBytesPerOp(t, func() error {
			_, err := Encode(context.Background(), img, opt, workers)
			return err
		})
		if got > bound {
			t.Errorf("workers=%d: %d B allocated per encode, want <= %d", workers, got, bound)
		}
	}
}

// TestRegionDecodeIsRegionSized pins the Region decode's output
// writes: the inverse MCT writes the window straight into a
// window-sized image, so a 128² Region decode of a 512² stream
// allocates less than one full-resolution plane (512²·4 = 1 MiB) — the
// full-size image a decode-then-crop builds is three of them. It
// measures 0.3–0.47 MB a decode, 0.2 MB of it the output, so the
// bound leaves 2× for pool refills after a GC.
func TestRegionDecodeIsRegionSized(t *testing.T) {
	const size, bound = 512, 1_000_000
	if bound >= size*size*4 {
		t.Fatal("bound must stay below one full-resolution plane")
	}
	img := workload.Dial(size, size, 6, 5)
	for _, opt := range []Options{{Lossless: true}, {Rate: 0.1}} {
		res, err := Encode(context.Background(), img, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			dopt := DecodeOptions{Region: Rect{X0: 200, Y0: 136, W: 128, H: 128}, Workers: workers}
			got := allocBytesPerOp(t, func() error {
				_, err := Decode(context.Background(), res.Data, dopt)
				return err
			})
			if got > bound {
				t.Errorf("lossless=%v workers=%d: %d B allocated per Region decode, want <= %d", opt.Lossless, workers, got, bound)
			}
		}
	}
}

// TestStreamBoundCoversStream pins the capacity finish gives its one
// output buffer: at least the stream's length, so the packets are
// written once with no regrowth, and within 5% of it, so the buffer
// is not padded with bytes nobody writes.
func TestStreamBoundCoversStream(t *testing.T) {
	img := workload.Dial(192, 160, 7, 5)
	for _, opt := range []Options{
		{Lossless: true},
		{Lossless: true, TileW: 64, TileH: 64},
		{Lossless: true, Resilience: true, CBW: 16, CBH: 16},
		{Rate: 0.1},
		{LayerRates: []float64{0.02, 0.1, 0.4}, TileW: 96, TileH: 64},
		{Lossless: true, HT: true},
		{Rate: 0.2, HT: true, Resilience: true},
	} {
		res, err := Encode(context.Background(), img, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		o := opt.WithDefaults(img.W, img.H)
		head := &codestream.Header{NComp: len(img.Comps), Levels: o.Levels}
		ntiles := len(TileGrid(img.W, img.H, o.TileW, o.TileH))
		bound := streamBound(head, ntiles, o, res.Blocks, res.LayerKeep)
		if n := len(res.Data); bound < n || bound > n+n/20+256 {
			t.Errorf("%+v: bound %d for a %d-byte stream", opt, bound, n)
		}
	}
}
