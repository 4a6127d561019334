package codec

import (
	"context"
	"errors"
	"testing"

	"j2kcell/internal/codestream"
	"j2kcell/internal/workload"
)

// bombStream builds a tiny, fully well-formed codestream whose SIZ
// declares a 2^20 × 2^20 image — a terabyte-scale pixel budget in a
// few hundred bytes.
func bombStream() []byte {
	mb := make([]int, 16)
	for i := range mb {
		mb[i] = 8
	}
	head := &codestream.Header{
		W: 1 << 20, H: 1 << 20, NComp: 1, Depth: 8,
		Levels: 5, CBW: 64, CBH: 64, Layers: 1,
		Lossless: true, Mb: [][]int{mb},
	}
	return codestream.Encode(head, nil)
}

// TestDecompressionBombRejectedBeforeAllocation pins the core defense:
// the gigapixel header dies in SIZ parsing with a typed *FormatError,
// before any plane or tile table is sized from it — measured by the
// allocation count of the failing decode staying trivial.
func TestDecompressionBombRejectedBeforeAllocation(t *testing.T) {
	data := bombStream()
	_, err := Decode(context.Background(), data, DecodeOptions{})
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v (%T), want *FormatError", err, err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		_, _ = Decode(context.Background(), data, DecodeOptions{})
	})
	if allocs > 100 {
		t.Errorf("rejecting a bomb header cost %.0f allocations — limit check runs too late", allocs)
	}
}

// TestLimitsAxes exercises each Limits field against streams that
// violate only that axis.
func TestLimitsAxes(t *testing.T) {
	img := workload.Dial(64, 64, 3, 4)
	res, err := Encode(context.Background(), img, Options{Lossless: true, Levels: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tiledRes, err := Encode(context.Background(), img, Options{Lossless: true, TileW: 16, TileH: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		lim  Limits
		data []byte
	}{
		{"width", Limits{MaxWidth: 32}, res.Data},
		{"height", Limits{MaxHeight: 32}, res.Data},
		{"components", Limits{MaxComponents: 2}, res.Data},
		{"levels", Limits{MaxLevels: 2}, res.Data},
		{"pixels", Limits{MaxPixels: 1000}, res.Data},
		{"tiles", Limits{MaxTiles: 8}, tiledRes.Data}, // 4×4 grid = 16 tiles
	}
	for _, tc := range cases {
		lim := tc.lim
		_, err := Decode(context.Background(), tc.data, DecodeOptions{Limits: &lim})
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: got %v (%T), want *FormatError", tc.name, err, err)
		}
	}
	// The same streams decode fine under the defaults.
	if _, err := Decode(context.Background(), res.Data, DecodeOptions{}); err != nil {
		t.Errorf("default limits rejected a legitimate stream: %v", err)
	}
	if _, err := Decode(context.Background(), tiledRes.Data, DecodeOptions{}); err != nil {
		t.Errorf("default limits rejected a legitimate tiled stream: %v", err)
	}
}

// TestZeroLimitsDisableChecking pins the documented escape hatch: a
// zero Limits struct turns header limiting off (the stream then stands
// or falls on its actual contents).
func TestZeroLimitsDisableChecking(t *testing.T) {
	img := workload.Dial(48, 48, 1, 4)
	res, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var off Limits
	tight := Limits{MaxPixels: 10}
	if _, err := Decode(context.Background(), res.Data, DecodeOptions{Limits: &tight}); err == nil {
		t.Fatal("tight limit accepted the stream")
	}
	if _, err := Decode(context.Background(), res.Data, DecodeOptions{Limits: &off}); err != nil {
		t.Fatalf("zero Limits still rejected the stream: %v", err)
	}
}
