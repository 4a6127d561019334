// Command j2kverify runs the library's end-to-end conformance matrix
// on synthetic workloads and prints a pass/fail report: lossless
// bit-exactness, rate-budget compliance, progression correctness,
// encoder byte-identity across the sequential, goroutine-parallel and
// Cell-simulated paths, plus the robustness contract (header limits,
// cancellation, fault containment). Intended as a post-install smoke
// test.
//
// -timeout bounds each individual check; a hung check fails the run
// with exit code 5. Exit codes: 0 all pass, 1 check failure, 5 a
// check timed out.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"j2kcell"
	"j2kcell/internal/cli"
	"j2kcell/internal/codestream"
	"j2kcell/internal/faults"
)

type check struct {
	name string
	fn   func() error
}

// bombStream builds a well-formed codestream whose SIZ declares a
// 2^20 × 2^20 image — the decompression-bomb probe.
func bombStream() []byte {
	mb := make([]int, 16)
	for i := range mb {
		mb[i] = 8
	}
	return codestream.Encode(&codestream.Header{
		W: 1 << 20, H: 1 << 20, NComp: 1, Depth: 8,
		Levels: 5, CBW: 64, CBH: 64, Layers: 1,
		Lossless: true, Mb: [][]int{mb},
	}, nil)
}

func main() {
	timeout := flag.Duration("timeout", 2*time.Minute, "per-check watchdog (0 = no limit; exit code 5 on expiry)")
	maxPixels := flag.Int64("max-pixels", 0, "decoder pixel budget used by the checks (0 = library default)")
	flag.Parse()

	img := j2kcell.TestImage(256, 192, 99)
	raw := img.W * img.H * len(img.Comps)
	limits := cli.Limits(*maxPixels, 0)

	checks := []check{
		{"lossless round trip is bit exact", func() error {
			data, _, err := j2kcell.Encode(img, j2kcell.Options{Lossless: true})
			if err != nil {
				return err
			}
			back, err := j2kcell.Decode(data)
			if err != nil {
				return err
			}
			if !img.Equal(back) {
				return fmt.Errorf("reconstruction differs")
			}
			return nil
		}},
		{"lossy rate 0.1 respects the byte budget", func() error {
			data, _, err := j2kcell.Encode(img, j2kcell.Options{Rate: 0.1})
			if err != nil {
				return err
			}
			if len(data) > raw/10 {
				return fmt.Errorf("%d bytes > budget %d", len(data), raw/10)
			}
			back, err := j2kcell.Decode(data)
			if err != nil {
				return err
			}
			if p := img.PSNR(back); p < 25 {
				return fmt.Errorf("PSNR %.1f dB too low", p)
			}
			return nil
		}},
		{"three encoders emit identical bytes", func() error {
			opt := j2kcell.Options{Rate: 0.15}
			a, _, err := j2kcell.Encode(img, opt)
			if err != nil {
				return err
			}
			b, _, err := j2kcell.EncodeParallelContext(context.Background(), img, opt, 0)
			if err != nil {
				return err
			}
			c, err := j2kcell.Simulate(img, j2kcell.DefaultSimConfig(8, opt))
			if err != nil {
				return err
			}
			if string(a) != string(b) || string(a) != string(c.Data) {
				return fmt.Errorf("encoder outputs diverge")
			}
			return nil
		}},
		{"quality layers are progressive", func() error {
			data, _, err := j2kcell.Encode(img, j2kcell.Options{LayerRates: []float64{0.03, 0.1, 0.3}})
			if err != nil {
				return err
			}
			last := 0.0
			for l := 1; l <= 3; l++ {
				got, err := j2kcell.DecodeWith(data, j2kcell.DecodeOptions{MaxLayers: l})
				if err != nil {
					return err
				}
				p := img.PSNR(got)
				if p < last-0.01 {
					return fmt.Errorf("PSNR fell at layer %d", l)
				}
				last = p
			}
			return nil
		}},
		{"resolution-progressive decode sizes", func() error {
			data, _, err := j2kcell.Encode(img, j2kcell.Options{Lossless: true})
			if err != nil {
				return err
			}
			got, err := j2kcell.DecodeWith(data, j2kcell.DecodeOptions{DiscardLevels: 2})
			if err != nil {
				return err
			}
			if got.W != 64 || got.H != 48 {
				return fmt.Errorf("got %dx%d, want 64x48", got.W, got.H)
			}
			return nil
		}},
		{"window decode matches full-decode crop", func() error {
			data, _, err := j2kcell.Encode(img, j2kcell.Options{Lossless: true})
			if err != nil {
				return err
			}
			win, err := j2kcell.DecodeWith(data, j2kcell.DecodeOptions{
				Region: j2kcell.Rect{X0: 60, Y0: 50, W: 70, H: 40}})
			if err != nil {
				return err
			}
			if !win.Equal(img.SubImage(60, 50, 70, 40)) {
				return fmt.Errorf("window differs from crop")
			}
			return nil
		}},
		{"tiled encode round trips", func() error {
			data, _, err := j2kcell.Encode(img, j2kcell.Options{Lossless: true, TileW: 96, TileH: 96})
			if err != nil {
				return err
			}
			back, err := j2kcell.Decode(data)
			if err != nil {
				return err
			}
			if !img.Equal(back) {
				return fmt.Errorf("tiled reconstruction differs")
			}
			return nil
		}},
		{"truncated streams error cleanly", func() error {
			data, _, err := j2kcell.Encode(img, j2kcell.Options{Lossless: true})
			if err != nil {
				return err
			}
			for _, n := range []int{0, 2, len(data) / 3, len(data) - 3} {
				if _, err := j2kcell.Decode(data[:n]); err == nil {
					return fmt.Errorf("truncation at %d accepted", n)
				}
			}
			return nil
		}},
		{"gigapixel header rejected as FormatError", func() error {
			_, err := j2kcell.DecodeWithContext(context.Background(), bombStream(),
				j2kcell.DecodeOptions{Limits: limits})
			var fe *j2kcell.FormatError
			if !errors.As(err, &fe) {
				return fmt.Errorf("got %v, want *FormatError", err)
			}
			return nil
		}},
		{"cancelled encode returns context.Canceled", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, _, err := j2kcell.EncodeParallelContext(ctx, img, j2kcell.Options{Lossless: true}, 4)
			if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("got %v, want context.Canceled", err)
			}
			return nil
		}},
		{"injected stage panic contained as FaultError", func() error {
			faults.Arm("t1", 1, faults.Panic)
			defer faults.Disarm()
			_, _, err := j2kcell.EncodeParallelContext(context.Background(), img, j2kcell.Options{Lossless: true}, 4)
			var fe *j2kcell.FaultError
			if !errors.As(err, &fe) {
				return fmt.Errorf("got %v, want *FaultError", err)
			}
			if fe.Stage != "t1" {
				return fmt.Errorf("fault stage %q, want t1", fe.Stage)
			}
			return nil
		}},
	}

	failed, timedOut := 0, 0
	for _, c := range checks {
		start := time.Now()
		err := runChecked(c.fn, *timeout)
		status := "ok  "
		if err != nil {
			status = "FAIL"
			failed++
			if errors.Is(err, context.DeadlineExceeded) {
				timedOut++
			}
		}
		fmt.Printf("%s  %-45s %8v", status, c.name, time.Since(start).Round(time.Millisecond))
		if err != nil {
			fmt.Printf("  (%v)", err)
		}
		fmt.Println()
	}
	if failed > 0 {
		fmt.Printf("%d of %d checks failed\n", failed, len(checks))
		if timedOut > 0 {
			os.Exit(cli.ExitTimeout)
		}
		os.Exit(cli.ExitError)
	}
	fmt.Printf("all %d checks passed\n", len(checks))
}

// runChecked runs fn under the watchdog. A check that outlives the
// timeout is reported as DeadlineExceeded; its goroutine is abandoned
// (the process exits shortly after anyway).
func runChecked(fn func() error, timeout time.Duration) error {
	if timeout <= 0 {
		return fn()
	}
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		return fmt.Errorf("check watchdog: %w", context.DeadlineExceeded)
	}
}
