package codec

import (
	"context"
	"testing"

	"j2kcell/internal/workload"
)

// mutate returns a copy of data with n deterministic corruptions.
func mutate(rng *workload.RNG, data []byte, n int) []byte {
	out := append([]byte(nil), data...)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0: // flip a byte
			out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
		case 1: // zero a run
			p := rng.Intn(len(out))
			for j := p; j < p+8 && j < len(out); j++ {
				out[j] = 0
			}
		case 2: // set a run to 0xFF (marker bait)
			p := rng.Intn(len(out))
			for j := p; j < p+4 && j < len(out); j++ {
				out[j] = 0xFF
			}
		}
	}
	return out
}

// TestDecoderNeverPanicsOnCorruptStreams feeds hundreds of mutated
// codestreams through the decoder. Errors are expected (and frequent);
// panics are defects.
func TestDecoderNeverPanicsOnCorruptStreams(t *testing.T) {
	imgs := []struct {
		name string
		opt  Options
	}{
		{"lossless", Options{Lossless: true}},
		{"lossy", Options{Rate: 0.1}},
		{"layers", Options{LayerRates: []float64{0.05, 0.2}}},
	}
	src := workload.Dial(96, 96, 9, 5)
	for _, tc := range imgs {
		res, err := Encode(context.Background(), src, tc.opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := workload.NewRNG(77)
		for trial := 0; trial < 150; trial++ {
			data := mutate(rng, res.Data, rng.Intn(6)+1)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s trial %d: decoder panicked: %v", tc.name, trial, r)
					}
				}()
				img, err := Decode(context.Background(), data, DecodeOptions{})
				_ = img
				_ = err // errors are fine; panics are not
			}()
		}
	}
}

// TestDecoderNeverPanicsOnTruncation truncates at every length class.
func TestDecoderNeverPanicsOnTruncation(t *testing.T) {
	src := workload.Dial(64, 64, 3, 5)
	res, err := Encode(context.Background(), src, Options{LayerRates: []float64{0.1, 0.5}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(res.Data); n += 7 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation at %d: panic: %v", n, r)
				}
			}()
			_, _ = Decode(context.Background(), res.Data[:n], DecodeOptions{})
		}()
	}
}

// TestDecoderNeverPanicsOnRandomBytes tries pure garbage with valid
// magic so parsing proceeds past the first check.
func TestDecoderNeverPanicsOnRandomBytes(t *testing.T) {
	rng := workload.NewRNG(5)
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(500) + 4
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		data[0], data[1] = 0xFF, 0x4F // SOC
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v", trial, r)
				}
			}()
			_, _ = Decode(context.Background(), data, DecodeOptions{})
		}()
	}
}
