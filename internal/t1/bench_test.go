package t1

import (
	"fmt"
	"testing"

	"j2kcell/internal/dwt"
)

// benchContent generates the two canonical code-block statistics: dense
// (every coefficient non-zero, all planes busy — the Tier-1 worst case)
// and sparse (wavelet detail statistics: mostly quiet stripe columns,
// the case the skip masks target).
func benchContent(kind string, w, h int, seed uint32) []int32 {
	if kind == "dense" {
		return randBlock(w, h, seed, 400)
	}
	return sparseBlock(w, h, seed)
}

// forEachGridBlock calls f for every block of the canonical grid:
// orientation (context table) × content statistics × block size, with
// fixed seeds so that encode and decode tables divide row by row.
func forEachGridBlock(f func(name string, coef []int32, n int, o dwt.Orient)) {
	for _, o := range []dwt.Orient{dwt.LL, dwt.HL, dwt.LH, dwt.HH} {
		for _, kind := range []string{"sparse", "dense"} {
			for _, n := range []int{32, 64} {
				coef := benchContent(kind, n, n, uint32(n)+uint32(o)*17+3)
				f(fmt.Sprintf("%v/%s/%dx%d", o, kind, n, n), coef, n, o)
			}
		}
	}
}

// benchEncodeGrid encodes the canonical block grid in one mode.
func benchEncodeGrid(b *testing.B, mode Mode) {
	forEachGridBlock(func(name string, coef []int32, n int, o dwt.Orient) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(4 * n * n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Encode(coef, n, n, n, o, mode, 1.0)
			}
		})
	})
}

// benchDecode times decoding every pass of one encoded n×n block.
func benchDecode(b *testing.B, name string, coef []int32, n int, o dwt.Orient, mode Mode) {
	blk := Encode(coef, n, n, n, o, mode, 1.0)
	segLens := make([]int, len(blk.Passes))
	for i, p := range blk.Passes {
		segLens[i] = int(p.SegLen)
	}
	out := make([]int32, n*n)
	b.Run(name, func(b *testing.B) {
		b.SetBytes(int64(4 * n * n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Decode(out, n, n, n, o, mode, blk.NumBPS, len(blk.Passes), blk.Data, segLens); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Benchmark_T1EncodeBlock prices the Tier-1 block coder itself across
// orientation (context table), content statistics, and block geometry.
// PR 2's acceptance floor: dense 64×64 must be ≥ 1.5× the pre-PR coder.
func Benchmark_T1EncodeBlock(b *testing.B) { benchEncodeGrid(b, ModeSingle) }

// Benchmark_T1EncodeBlockTermAll prices the rate-control coding mode
// (one MQ termination per pass), the mode PCRD truncates.
func Benchmark_T1EncodeBlockTermAll(b *testing.B) {
	coef := benchContent("dense", 64, 64, 9)
	b.SetBytes(int64(4 * 64 * 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(coef, 64, 64, 64, dwt.HL, ModeTermAll, 1.0)
	}
}

// Benchmark_T1DecodeBlock prices the mirrored decoder on the
// Benchmark_T1EncodeBlock grid (same blocks, ModeSingle), so each row
// divides against its encode twin, plus the
// Benchmark_T1EncodeBlockTermAll block decoded in ModeTermAll.
func Benchmark_T1DecodeBlock(b *testing.B) {
	forEachGridBlock(func(name string, coef []int32, n int, o dwt.Orient) {
		benchDecode(b, name, coef, n, o, ModeSingle)
	})
	benchDecode(b, "termall/HL/dense/64x64", benchContent("dense", 64, 64, 9), 64, dwt.HL, ModeTermAll)
}

// Benchmark_HTEncodeBlock prices the HT cleanup coder on the exact
// blocks Benchmark_T1EncodeBlock uses (same seeds, same grid), so the
// two tables divide directly. PR 7's acceptance floor: HT must be ≥ 3×
// the MQ coder on the dense blocks.
func Benchmark_HTEncodeBlock(b *testing.B) { benchEncodeGrid(b, ModeHT) }

// Benchmark_HTEncodeBlockRefine prices the three-pass HT variant
// (cleanup at plane 1 plus raw SigProp/MagRef), the mode the rate
// controller truncates, over the Benchmark_HTEncodeBlock grid (same
// blocks), so each row divides against its cleanup-only twin.
func Benchmark_HTEncodeBlockRefine(b *testing.B) { benchEncodeGrid(b, ModeHTRefine) }

// Benchmark_HTDecodeBlock prices the HT decoder over content statistics
// × coding mode × block size, decoding every pass of blocks built from
// the benchContent generators.
func Benchmark_HTDecodeBlock(b *testing.B) {
	for _, kind := range []string{"dense", "sparse"} {
		for _, mode := range []Mode{ModeHT, ModeHTRefine} {
			for _, n := range []int{32, 64} {
				coef := benchContent(kind, n, n, 11)
				blk := Encode(coef, n, n, n, dwt.HL, mode, 1.0)
				segLens := make([]int, len(blk.Passes))
				for i, p := range blk.Passes {
					segLens[i] = int(p.SegLen)
				}
				out := make([]int32, n*n)
				name := "ht"
				if mode == ModeHTRefine {
					name = "refine"
				}
				b.Run(fmt.Sprintf("%s/%s/%dx%d", kind, name, n, n), func(b *testing.B) {
					b.SetBytes(int64(4 * n * n))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := Decode(out, n, n, n, dwt.HL, mode, blk.NumBPS, len(blk.Passes), blk.Data, segLens); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
