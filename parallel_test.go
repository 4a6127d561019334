// Determinism matrix for the whole-pipeline parallel encoder: the
// codestream must be byte-identical to the sequential encoder for
// every worker count, coding mode, and tiling — run `make race` to
// execute this matrix under the race detector.
package j2kcell

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"j2kcell/internal/pnm"
	"j2kcell/internal/simd"
)

// The determinism inputs share odd dimensions, so stripe and column
// boundaries exercise the edge paths: an RGB image, which runs the
// component transform, and its first component alone, which decodes
// without one.
var (
	rgbInput  = TestImage(97, 61, 7)
	grayInput = &Image{W: rgbInput.W, H: rgbInput.H, Depth: rgbInput.Depth, Comps: rgbInput.Comps[:1]}
)

// parallelCases is the determinism matrix: {lossless, lossy} ×
// {untiled, tiled} with the MQ coder and three of those with HT on the
// RGB input, and {lossless, lossy} on the one-component input. Each case pins the SHA-256 of its
// sequential stream and of that stream's sequential decode. The
// digests are the same under every build's kernel set (SSE2 on amd64,
// scalar under -tags noasm and on other GOARCHes), so running these
// tests on each build enforces the kernels' bit-identity contract
// across builds. If a change to the bytes or pixels is intentional,
// run the tests with -v: they log the new digests to paste in here.
var parallelCases = []struct {
	name           string
	img            *Image
	opt            Options
	stream, pixels string
}{
	{"lossless", rgbInput, Options{Lossless: true},
		"6c85bb55880b092f82865107f8f45a5d4e2b639a896558f8bf48fce57bcf3b4d",
		"596eeb43d38512c7065c171fd5436d1c413bec0eaada4b8a308ae7b489ceb681"},
	{"lossy", rgbInput, Options{Rate: 0.2},
		"19117a6180d548193ac33e1b8da558dc9e11eac1ecb67a958dd9d8240677537e",
		"847834c8c2d9c5178b8d5cbc51db9a3b90337fcf5723d565982a8db5976b5289"},
	{"lossless-tiled", rgbInput, Options{Lossless: true, TileW: 48, TileH: 32},
		"c25ce3123776b750bb2ec0ff716b6f244cec4d49263c009d6a8359d5597678dd",
		"596eeb43d38512c7065c171fd5436d1c413bec0eaada4b8a308ae7b489ceb681"},
	{"lossy-tiled", rgbInput, Options{Rate: 0.2, TileW: 48, TileH: 32},
		"d60aa6396759d3b86832e5dc08a2fb5a0630208840794c55c1d603124027480e",
		"c2bfc883c2795c3a6f0039ac6aca04c0948c22a8faeeef587f66cdeb3f46879c"},
	{"lossless-ht", rgbInput, Options{Lossless: true, HT: true},
		"733e58cbd0e6893861ccff4a42adf0373179018d6de147a36f7b67d6653a425e",
		"596eeb43d38512c7065c171fd5436d1c413bec0eaada4b8a308ae7b489ceb681"},
	{"lossy-ht", rgbInput, Options{Rate: 0.2, HT: true},
		"c0948a5baaf657b0af6e7e98ab70b44d3a675e6a155c567d165312478b7c6c5d",
		"3dce53a5a24356c0f991b758868198f7fbade3cf260ac21cc2646cbe31ade58d"},
	{"lossless-ht-tiled", rgbInput, Options{Lossless: true, HT: true, TileW: 48, TileH: 32},
		"4319e97308d2132002f20d8fd85ea6920fab5307f6d4679656a6ea0bbdf7ea15",
		"596eeb43d38512c7065c171fd5436d1c413bec0eaada4b8a308ae7b489ceb681"},
	{"gray-lossless", grayInput, Options{Lossless: true},
		"71d5771a6642c6bfef6a5d04ec293846d526ee4259956c64273c6df3eafcfd6e",
		"cd24ebf288efa811defb5b23b43b4f01c4b2b8560ede6df4fdd3403d250c8179"},
	{"gray-lossy", grayInput, Options{Rate: 0.2},
		"7112057264aa957061f8110da9bb7779b04b6165e057ea9878f9447fd6ccf74b",
		"dfaeb7c77534a5eca1bff4543c375cc55d0a799285922af2a904fa9809734b1e"},
}

func workerCounts() []int {
	return []int{1, 2, 3, runtime.GOMAXPROCS(0)}
}

// checkDigest logs got under -v and fails the test if it is not want.
func checkDigest(t *testing.T, what, got, want string) {
	t.Helper()
	t.Logf("%s digest %s", what, got)
	if got != want {
		t.Fatalf("%s digest changed under kernel set %s:\n  got  %s\n  want %s", what, simd.Kernel(), got, want)
	}
}

// pixelDigest is the SHA-256 of img's samples, component by component
// and row by row, each as a little-endian int32.
func pixelDigest(img *Image) string {
	h := sha256.New()
	for _, c := range img.Comps {
		for y := 0; y < c.H; y++ {
			binary.Write(h, binary.LittleEndian, c.Row(y))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestEncodeParallelDeterminism(t *testing.T) {
	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			seq, _, err := Encode(tc.img, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(seq)
			checkDigest(t, "stream", hex.EncodeToString(sum[:]), tc.stream)
			for _, w := range workerCounts() {
				t.Run(fmt.Sprintf("workers-%d", w), func(t *testing.T) {
					par, _, err := EncodeParallelContext(context.Background(), tc.img, tc.opt, w)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(par, seq) {
						t.Fatalf("parallel stream differs from sequential (%d vs %d bytes)",
							len(par), len(seq))
					}
				})
			}
		})
	}
}

func TestDecodeParallelDeterminism(t *testing.T) {
	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			data, _, err := Encode(tc.img, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, "pixel", pixelDigest(ref), tc.pixels)
			for _, w := range workerCounts() {
				t.Run(fmt.Sprintf("workers-%d", w), func(t *testing.T) {
					got, err := DecodeWith(data, DecodeOptions{Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					if !ref.Equal(got) {
						t.Fatal("parallel decode differs from sequential")
					}
				})
			}
		})
	}
}

// TestDecodeKernelSetsDeterminism is the decode-side ISA × workers
// matrix: the reconstructed image must be pixel-identical to the
// sequential decode for every kernel set the GOARCH has (scalar, and
// sse2 on amd64), every worker count, coding mode and tiling. The
// kernel set is fixed per build, so the set this test binary was not
// built with runs in a j2kdec built for it (with or without -tags
// noasm), whose -report line names the set it ran.
func TestDecodeKernelSetsDeterminism(t *testing.T) {
	sets := []string{"scalar"}
	if runtime.GOARCH == "amd64" {
		sets = append(sets, "sse2")
	}
	// The build's own set decodes in-process; the others through j2kdec.
	decoders := map[string]string{}
	for _, kern := range sets {
		if kern != simd.Kernel() {
			decoders[kern] = buildDecoder(t, kern)
		}
	}
	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			data, _, err := Encode(tc.img, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, kern := range sets {
				for _, w := range []int{1, 2, 8} {
					t.Run(fmt.Sprintf("%s-workers-%d", kern, w), func(t *testing.T) {
						var got *Image
						if bin, ok := decoders[kern]; ok {
							got = decodeWithBinary(t, bin, kern, data, w)
						} else if got, err = DecodeWith(data, DecodeOptions{Workers: w}); err != nil {
							t.Fatal(err)
						}
						if !ref.Equal(got) {
							t.Fatalf("kernel set %q decode differs from the %s sequential decode", kern, simd.Kernel())
						}
					})
				}
			}
		})
	}
}

// buildDecoder builds cmd/j2kdec with kernel set kern into a temporary
// directory and returns its path.
func buildDecoder(t *testing.T, kern string) string {
	t.Helper()
	tags := "-tags="
	if kern == "scalar" {
		tags = "-tags=noasm"
	}
	bin := filepath.Join(t.TempDir(), "j2kdec-"+kern)
	out, err := exec.Command("go", "build", tags, "-o", bin, "j2kcell/cmd/j2kdec").CombinedOutput()
	if err != nil {
		t.Fatalf("building j2kdec for kernel set %s: %v\n%s", kern, err, out)
	}
	return bin
}

// decodeWithBinary decodes data with the j2kdec at bin on w workers,
// checks that it ran kernel set kern, and returns the decoded image.
func decodeWithBinary(t *testing.T, bin, kern string, data []byte, w int) *Image {
	t.Helper()
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in.j2c"), filepath.Join(dir, "out.pnm")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := exec.Command(bin, "-in", in, "-out", out, "-workers", strconv.Itoa(w), "-report").CombinedOutput()
	if err != nil {
		t.Fatalf("%s: %v\n%s", bin, err, log)
	}
	if !bytes.Contains(log, []byte("simd kernels: "+kern+"\n")) {
		t.Fatalf("%s did not report kernel set %s:\n%s", bin, kern, log)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	img, err := pnm.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestEncodeSteadyStateAllocs pins the allocation profile of the
// pooled pipeline: after a warm-up encode has populated the plane,
// Tier-1, and stripe-scratch arenas, a steady-state encode allocates
// only per-block outputs (Block structs, pass records, codeword
// copies) and the assembled stream — not coefficient planes or coder
// scratch. The bounds have ~1.5x headroom over measured values; a
// failure means per-encode scratch is being reallocated again.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	img := TestImage(192, 160, 9)
	for _, tc := range []struct {
		name   string
		opt    Options
		maxPer float64 // allocations per encode
	}{
		{"lossless", Options{Lossless: true}, 2500},
		{"lossy", Options{Rate: 0.2}, 9000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			encode := func() {
				if _, _, err := EncodeParallelContext(context.Background(), img, tc.opt, 1); err != nil {
					t.Fatal(err)
				}
			}
			encode() // warm the pools
			got := testing.AllocsPerRun(10, encode)
			t.Logf("allocs/encode = %.0f (bound %.0f)", got, tc.maxPer)
			if got > tc.maxPer {
				t.Fatalf("steady-state encode allocates %.0f times, want <= %.0f", got, tc.maxPer)
			}
		})
	}
}

// TestDecodeSteadyStateAllocs pins pool reuse across the new decode
// stages: after a warm-up decode has populated the plane and
// stripe-scratch arenas, a steady-state decode allocates only per-run
// transients (the output image, packet/block accumulators, per-block
// codeword copies) — the coefficient planes and the inverse DWT
// scratch come from the arenas. The bounds have ~1.5x headroom over
// measured values; a failure means a decode stage stopped recycling.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	img := TestImage(192, 160, 9)
	for _, tc := range []struct {
		name   string
		opt    Options
		maxPer float64 // allocations per decode
	}{
		{"lossless", Options{Lossless: true}, 2200},
		{"lossy", Options{Rate: 0.2}, 4400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, _, err := Encode(img, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			decode := func() {
				if _, err := DecodeWith(data, DecodeOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}
			decode() // warm the pools
			got := testing.AllocsPerRun(10, decode)
			t.Logf("allocs/decode = %.0f (bound %.0f)", got, tc.maxPer)
			if got > tc.maxPer {
				t.Fatalf("steady-state decode allocates %.0f times, want <= %.0f", got, tc.maxPer)
			}
		})
	}
}
