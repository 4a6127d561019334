package codec

import (
	"context"
	"errors"
	"testing"
	"time"

	"j2kcell/internal/obs"
	"j2kcell/internal/workload"
)

// TestPreCancelledContextReturnsImmediately pins the entry check: an
// already-cancelled context never starts stage work.
func TestPreCancelledContextReturnsImmediately(t *testing.T) {
	img := workload.Dial(64, 64, 3, 4)
	res, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := Encode(ctx, img, Options{Lossless: true}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("encode: got %v, want context.Canceled", err)
	}
	if _, err := Encode(ctx, img, Options{Lossless: true, TileW: 32, TileH: 32}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("tiled encode: got %v, want context.Canceled", err)
	}
	if _, err := Decode(ctx, res.Data, DecodeOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("decode: got %v, want context.Canceled", err)
	}
}

// TestExpiredDeadlineReturnsDeadlineExceeded pins that deadline expiry
// surfaces unwrapped, distinguishable from plain cancellation.
func TestExpiredDeadlineReturnsDeadlineExceeded(t *testing.T) {
	img := workload.Dial(64, 64, 3, 4)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Encode(ctx, img, Options{Lossless: true}, 2)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelMidEncodeStopsPromptly cancels while the stage pipeline is
// draining a large image and requires the encode to stop early: a
// cancelled encode returns context.Canceled unwrapped, having coded
// fewer blocks than planned, and leaks no goroutines.
func TestCancelMidEncodeStopsPromptly(t *testing.T) {
	img := workload.Dial(1024, 1024, 7, 5)
	opt := Options{Lossless: true}
	_, planned := PlanBlocks(img.W, img.H, len(img.Comps), opt.WithDefaults(img.W, img.H))
	before := goroutineCount()
	ctx, cancel := context.WithCancel(context.Background())
	ctx, rec := obs.WithOperation(ctx, "cancelled-encode")
	defer rec.Finish()
	done := make(chan error, 1)
	go func() {
		_, err := Encode(ctx, img, opt, 4)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the pipeline start
	cancel()
	select {
	case err := <-done:
		// A fast machine may finish the whole encode before cancel
		// lands; that is not a containment failure.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled or nil", err)
		}
		if err == nil {
			t.Log("encode completed before cancellation landed")
		} else if coded := rec.Counter(obs.CtrT1Blocks); coded >= int64(len(planned)) {
			t.Errorf("cancelled encode coded %d of %d planned blocks", coded, len(planned))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled encode did not return")
	}
	if after := goroutineCount(); after > before+2 {
		t.Errorf("goroutines leaked after cancellation: %d -> %d", before, after)
	}
}

// TestCancelMidDecodeStopsPromptly is the decode-side analogue,
// exercising the cancellation points of every queue the inverse chain
// drains — the packet-parse loop, the one-job-per-task Tier-1
// stage, and the IDWT/inverse-MCT stages (and, in the tiled
// case, the tile queue wrapping them) — and pinning that the aborted
// pipeline joined all its workers: no goroutine outlives the decode.
func TestCancelMidDecodeStopsPromptly(t *testing.T) {
	img := workload.Dial(512, 512, 3, 5)
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"untiled", Options{Lossless: true}},
		{"tiled", Options{Lossless: true, TileW: 128, TileH: 128}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Encode(context.Background(), img, tc.opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			data := res.Data
			before := goroutineCount()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := Decode(ctx, data, DecodeOptions{Workers: 4})
				done <- err
			}()
			time.Sleep(2 * time.Millisecond)
			cancel()
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("got %v, want context.Canceled or nil", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cancelled decode did not return")
			}
			if after := goroutineCount(); after > before+2 {
				t.Errorf("goroutines leaked after cancelled decode: %d -> %d", before, after)
			}
		})
	}
}

// TestContextlessPathUnchanged pins that the Background-bound wrappers
// still produce byte-identical output — the cancellation plumbing must
// not perturb the determinism invariant.
func TestContextlessPathUnchanged(t *testing.T) {
	img := workload.Dial(160, 120, 4, 4)
	opt := Options{Rate: 0.25}
	seq, err := Encode(context.Background(), img, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctxRes, err := Encode(context.Background(), img, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(seq.Data) != string(ctxRes.Data) {
		t.Fatal("context-bound encode diverged from sequential encode")
	}
}
