package codec

import (
	"context"
	"errors"
	"testing"

	"j2kcell/internal/codestream"
	"j2kcell/internal/jp2"
	"j2kcell/internal/workload"
)

// fuzzLimits keeps fuzz inputs small: the fuzzer should spend its
// budget on parser states, not on decoding megapixel planes.
var fuzzLimits = Limits{
	MaxWidth: 1 << 12, MaxHeight: 1 << 12,
	MaxComponents: 8, MaxLevels: 10,
	MaxTiles: 64, MaxPixels: 1 << 22,
}

// fuzzSeeds returns valid codestreams (raw and JP2-wrapped) plus
// deterministic mutations of them, reusing the corruption operators of
// the corrupt-stream regression tests.
func fuzzSeeds(tb testing.TB) [][]byte {
	src := workload.Dial(48, 48, 5, 4)
	var seeds [][]byte
	rng := workload.NewRNG(123)
	for _, opt := range []Options{
		{Lossless: true},
		{Rate: 0.2},
		{LayerRates: []float64{0.05, 0.2}, Resilience: true},
		{Lossless: true, TileW: 32, TileH: 32},
		{Lossless: true, HT: true},
		{Rate: 0.2, HT: true},
	} {
		res, err := Encode(context.Background(), src, opt, 1)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, res.Data)
		seeds = append(seeds, jp2.Wrap(jp2.Info{W: 48, H: 48, NComp: 3, Depth: 4}, res.Data))
		for i := 0; i < 3; i++ {
			seeds = append(seeds, mutate(rng, res.Data, i+1))
		}
		if len(res.Data) > 40 {
			seeds = append(seeds, res.Data[:len(res.Data)/2], res.Data[:37])
		}
	}
	return seeds
}

// FuzzDecode drives the full decoder. Parse errors are expected; a
// panic, a hang, or a *FaultError (a panic the containment layer had
// to catch — i.e. an input-reachable codec bug) is a finding.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := Decode(context.Background(), data, DecodeOptions{Limits: &fuzzLimits})
		if err != nil {
			var fe *FaultError
			if errors.As(err, &fe) {
				t.Fatalf("input-reachable panic was only caught by containment: %v", err)
			}
			return
		}
		if img == nil || img.W <= 0 || img.H <= 0 {
			t.Fatalf("nil error but bogus image: %+v", img)
		}
	})
}

// FuzzDecodeResilient pins best-effort totality: arbitrary input must
// yield an image and a self-consistent damage report — never an error,
// a panic, or a hang — and the report must be Complete exactly when
// the strict decode succeeds.
func FuzzDecodeResilient(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, rep := decodeResilient(t, data, DecodeOptions{Limits: &fuzzLimits})
		if img == nil || rep == nil {
			t.Fatal("DecodeResilient must be total")
		}
		if img.W <= 0 || img.H <= 0 || len(img.Comps) == 0 {
			t.Fatalf("bogus image: %dx%d", img.W, img.H)
		}
		if rep.SalvagedBytes > rep.TotalBytes {
			t.Fatalf("salvaged %d > total %d", rep.SalvagedBytes, rep.TotalBytes)
		}
		if rep.LostPackets > rep.TotalPackets || rep.LostBlocks > rep.TotalBlocks {
			t.Fatalf("inconsistent report: %+v", rep)
		}
		// Strict decode succeeds exactly when the report is complete,
		// and then with the same pixels.
		strict, err := Decode(context.Background(), data, DecodeOptions{Limits: &fuzzLimits})
		switch {
		case rep.Complete && err != nil:
			t.Fatalf("Complete report but strict decode fails: %v", err)
		case !rep.Complete && err == nil:
			t.Fatalf("strict decode succeeds but the report is not complete: %v", rep)
		case rep.Complete && !imagesEqual(img, strict):
			t.Fatal("Complete report but images differ from strict decode")
		}
	})
}

// FuzzDecodeHeaders targets the marker-segment parser alone, where
// most attacker-controlled arithmetic lives, with the limit checks in
// the loop.
func FuzzDecodeHeaders(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	lim := codestream.Limits(fuzzLimits)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, bodies, err := codestream.DecodeTilesLimits(data, lim)
		if err != nil {
			return
		}
		if h == nil || len(bodies) == 0 {
			t.Fatal("nil error but no header or bodies")
		}
		if h.W > lim.MaxWidth || h.H > lim.MaxHeight || h.NComp > lim.MaxComponents {
			t.Fatalf("accepted header exceeds limits: %dx%dx%d", h.W, h.H, h.NComp)
		}
	})
}
