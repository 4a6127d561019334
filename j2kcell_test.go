package j2kcell

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

func TestPublicEncodeDecode(t *testing.T) {
	img := TestImage(120, 90, 1)
	data, stats, err := Encode(img, Options{Lossless: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != 120*90*3 {
		t.Fatalf("stats: %+v", stats)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(got) {
		t.Fatal("public API round trip failed")
	}
}

func TestEncodeParallelMatchesSequential(t *testing.T) {
	img := TestImage(200, 150, 2)
	for _, opt := range []Options{{Lossless: true}, {Rate: 0.1}} {
		seq, _, err := Encode(img, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 0} {
			par, _, err := EncodeParallelContext(context.Background(), img, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			if string(par) != string(seq) {
				t.Fatalf("workers=%d: parallel output differs", workers)
			}
		}
	}
}

// TestEncodeParallelValidation pins that bad images are input errors
// at every public encode: a *FaultError would claim a codec bug.
func TestEncodeParallelValidation(t *testing.T) {
	mismatched := NewImage(4, 4, 2, 8)
	mismatched.Comps[1] = NewImage(3, 4, 1, 8).Comps[0]
	encoders := map[string]func(*Image) error{
		"Encode": func(img *Image) error {
			_, _, err := Encode(img, Options{})
			return err
		},
		"EncodeParallelContext": func(img *Image) error {
			_, _, err := EncodeParallelContext(context.Background(), img, Options{}, 2)
			return err
		},
	}
	for name, enc := range encoders {
		for what, img := range map[string]*Image{"nil": nil, "empty": {}, "mismatched": mismatched} {
			err := enc(img)
			var fe *FaultError
			if err == nil || errors.As(err, &fe) {
				t.Errorf("%s(%s image): got %v, want an input error", name, what, err)
			}
		}
	}
}

func TestSimulateMatchesEncode(t *testing.T) {
	img := TestImage(128, 96, 3)
	opt := Options{Lossless: true}
	seq, _, err := Encode(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(img, DefaultSimConfig(8, opt))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Data) != string(seq) {
		t.Fatal("simulated output differs from sequential")
	}
	if res.Cycles <= 0 || len(res.Stages) == 0 {
		t.Fatal("simulation profile empty")
	}
}

func TestTestImageDeterministic(t *testing.T) {
	if !TestImage(64, 64, 9).Equal(TestImage(64, 64, 9)) {
		t.Fatal("TestImage not deterministic")
	}
}

func TestPublicProgressiveDecoding(t *testing.T) {
	img := TestImage(128, 128, 4)
	data, _, err := Encode(img, Options{LayerRates: []float64{0.05, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := DecodeWith(data, DecodeOptions{MaxLayers: 1})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := DecodeWith(data, DecodeOptions{MaxLayers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if img.PSNR(l2) < img.PSNR(l1) {
		t.Fatal("more layers must not reduce quality")
	}
	half, err := DecodeWith(data, DecodeOptions{DiscardLevels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if half.W != 64 || half.H != 64 {
		t.Fatalf("reduced decode %dx%d", half.W, half.H)
	}
}

func TestSimulateMultiLayerMatches(t *testing.T) {
	img := TestImage(96, 96, 6)
	opt := Options{LayerRates: []float64{0.05, 0.2}}
	seq, _, err := Encode(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(img, DefaultSimConfig(4, opt))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Data) != string(seq) {
		t.Fatal("simulated multi-layer output differs")
	}
	par, _, err := EncodeParallelContext(context.Background(), img, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(par) != string(seq) {
		t.Fatal("goroutine-parallel multi-layer output differs")
	}
}

func TestPublicTiledEncoding(t *testing.T) {
	img := TestImage(160, 160, 8)
	opt := Options{Lossless: true, TileW: 64, TileH: 64}
	seq, _, err := Encode(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := EncodeParallelContext(context.Background(), img, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(par) != string(seq) {
		t.Fatal("tiled parallel differs from sequential")
	}
	got, err := Decode(seq)
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(got) {
		t.Fatal("tiled round trip failed")
	}
	// The Cell model rejects tiling explicitly.
	if _, err := Simulate(img, DefaultSimConfig(2, opt)); err == nil {
		t.Fatal("Simulate accepted tiled options")
	}
}

func TestPublicRegionDecode(t *testing.T) {
	img := TestImage(128, 128, 5)
	data, _, err := Encode(img, Options{Lossless: true})
	if err != nil {
		t.Fatal(err)
	}
	win, err := DecodeWith(data, DecodeOptions{Region: Rect{X0: 40, Y0: 40, W: 48, H: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if !win.Equal(img.SubImage(40, 40, 48, 32)) {
		t.Fatal("window decode not exact on lossless stream")
	}
}

func TestPublicDecodeParallel(t *testing.T) {
	img := TestImage(160, 120, 6)
	data, _, err := Encode(img, Options{Lossless: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWith(data, DecodeOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(got) {
		t.Fatal("parallel decode not exact")
	}
}

func TestJP2ContainerRoundTrip(t *testing.T) {
	img := TestImage(96, 80, 8)
	raw, _, err := Encode(img, Options{Lossless: true})
	if err != nil {
		t.Fatal(err)
	}
	jp2Data := WrapJP2(img, raw)
	got, err := Decode(jp2Data)
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(got) {
		t.Fatal("JP2 round trip not exact")
	}
	// Progressive decode works through the container too.
	half, err := DecodeWith(jp2Data, DecodeOptions{DiscardLevels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if half.W != 48 || half.H != 40 {
		t.Fatalf("reduced decode via JP2: %dx%d", half.W, half.H)
	}
}
