// Benchmarks regenerating the paper's evaluation. Every table and
// figure has a benchmark that runs the corresponding experiment and
// reports the modeled quantities as custom metrics (model-ms, speedup);
// wall-clock numbers additionally characterize this library as a native
// Go codec. J2K_BENCH_SCALE divides the paper's 3072x3072 workload
// (default 8 → 384x384); the modeled ratios are size-stable, so small
// scales reproduce the same shapes.
package j2kcell

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"j2kcell/internal/baseline"
	"j2kcell/internal/cell"
	"j2kcell/internal/codec"
	"j2kcell/internal/core"
	"j2kcell/internal/dwt"
	"j2kcell/internal/mq"
	"j2kcell/internal/spu"
	"j2kcell/internal/t1"
	"j2kcell/internal/workload"
)

func benchScale() int {
	if s := os.Getenv("J2K_BENCH_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			return v
		}
	}
	return 8
}

func benchDial() *Image {
	n := 3072 / benchScale()
	return workload.Dial(n, n, 42, 5)
}

func benchFrame() *Image {
	s := benchScale()
	return workload.Dial(1920/s, 1080/s, 43, 5)
}

// simulate runs one modeled encode and reports its metrics.
func simulate(b *testing.B, img *Image, cfg core.Config) *core.Result {
	b.Helper()
	var res *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.Encode(img, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1e3*cell.Seconds(res.Cycles), "model-ms")
	b.ReportMetric(float64(res.DMABytes)/1e6, "dma-MB")
	return res
}

// BenchmarkTable1_InstrLatency reproduces Table 1's consequence: the
// fixed-point 9/7 is slower than float on the SPE. Wall time measures
// one 9/7 lifting row in each representation, the pair Table 1's host
// rows time; the model ratio is the metric.
func BenchmarkTable1_InstrLatency(b *testing.B) {
	const n = 4096
	rng := workload.NewRNG(1)
	src := make([]int32, 3*n)
	for i := range src {
		src[i] = int32(rng.Intn(256)) - 128
	}
	b.Run("float97", func(b *testing.B) {
		row := make([]float32, len(src))
		for i, v := range src {
			row[i] = float32(v)
		}
		d, e0, e1 := row[:n], row[n:2*n], row[2*n:]
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			dwt.Lift97(d, e0, e1, float32(dwt.Alpha97))
		}
		b.ReportMetric(cell.SPECosts.DWT97, "spe-cycles/sample")
	})
	b.Run("fixed97", func(b *testing.B) {
		row := make([]int32, len(src))
		for i, v := range src {
			row[i] = dwt.ToFixed(v)
		}
		d, e0, e1 := row[:n], row[n:2*n], row[2*n:]
		b.SetBytes(4 * n)
		for i := 0; i < b.N; i++ {
			dwt.Lift97Fixed(d, e0, e1, -12994)
		}
		b.ReportMetric(cell.SPECosts.DWT97Fix, "spe-cycles/sample")
		b.ReportMetric(cell.SPECosts.DWT97Fix/cell.SPECosts.DWT97, "fixed/float")
	})
}

// BenchmarkFig4_LosslessScaling sweeps SPE counts for Figure 4.
func BenchmarkFig4_LosslessScaling(b *testing.B) {
	img := benchDial()
	opt := codec.Options{Lossless: true}
	base := 0.0
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("spe-%d", n), func(b *testing.B) {
			cfg := core.DefaultConfig(n, opt)
			res := simulate(b, img, cfg)
			sec := cell.Seconds(res.Cycles)
			if n == 1 {
				base = sec
			}
			if base > 0 {
				b.ReportMetric(base/sec, "speedup-vs-1spe")
			}
		})
	}
	b.Run("ppe-only", func(b *testing.B) {
		cfg := core.DefaultConfig(0, opt)
		cfg.PPET1 = true
		simulate(b, img, cfg)
	})
}

// BenchmarkFig5_LossyScaling sweeps SPE counts for Figure 5 and reports
// the rate-control share that flattens the curve.
func BenchmarkFig5_LossyScaling(b *testing.B) {
	img := benchDial()
	opt := codec.Options{Lossless: false, Rate: 0.1}
	base := 0.0
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("spe-%d", n), func(b *testing.B) {
			cfg := core.DefaultConfig(n, opt)
			if n == 16 {
				cfg.Cell = cell.QS20Config(16, 2)
				cfg.PPET1 = true
			}
			res := simulate(b, img, cfg)
			sec := cell.Seconds(res.Cycles)
			if n == 1 {
				base = sec
			}
			if base > 0 {
				b.ReportMetric(base/sec, "speedup-vs-1spe")
			}
			b.ReportMetric(100*float64(res.StageCycles("ratecontrol"))/float64(res.Cycles), "ratectl-%")
		})
	}
}

// BenchmarkFig6_OverallVsMuta compares per-frame encode time with the
// Muta et al. models.
func BenchmarkFig6_OverallVsMuta(b *testing.B) {
	img := benchFrame()
	var muta0 float64
	b.Run("muta0-2chips", func(b *testing.B) {
		var m baseline.MutaResult
		for i := 0; i < b.N; i++ {
			_, m8, err := baseline.EncodeMuta(img, 8, baseline.MutaClockHz)
			if err != nil {
				b.Fatal(err)
			}
			m = m8
		}
		muta0 = m.Total() / 2
		b.ReportMetric(1e3*muta0, "model-ms")
	})
	b.Run("ours-1chip", func(b *testing.B) {
		cfg := core.DefaultConfig(8, codec.Options{Lossless: true})
		cfg.PPET1 = true
		res := simulate(b, img, cfg)
		if muta0 > 0 {
			b.ReportMetric(muta0/cell.Seconds(res.Cycles), "speedup-vs-muta0")
		}
	})
	b.Run("ours-2chips", func(b *testing.B) {
		cfg := core.DefaultConfig(16, codec.Options{Lossless: true})
		cfg.Cell = cell.QS20Config(16, 2)
		cfg.PPET1 = true
		res := simulate(b, img, cfg)
		if muta0 > 0 {
			b.ReportMetric(muta0/cell.Seconds(res.Cycles), "speedup-vs-muta0")
		}
	})
}

// BenchmarkFig7_EBCOTVsMuta isolates the EBCOT comparison.
func BenchmarkFig7_EBCOTVsMuta(b *testing.B) {
	img := benchFrame()
	_, m8, err := baseline.EncodeMuta(img, 8, baseline.MutaClockHz)
	if err != nil {
		b.Fatal(err)
	}
	muta0 := m8.EBCOT / 2
	cfg := core.DefaultConfig(8, codec.Options{Lossless: true})
	cfg.PPET1 = true
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res, err = core.Encode(img, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	ours := cell.Seconds(res.StageCycles("tier1") + res.StageCycles("tier2+io"))
	b.ReportMetric(1e3*ours, "model-ms")
	b.ReportMetric(muta0/ours, "speedup-vs-muta0")
}

// BenchmarkFig8_DWTVsMuta isolates the DWT comparison.
func BenchmarkFig8_DWTVsMuta(b *testing.B) {
	img := benchFrame()
	_, m8, err := baseline.EncodeMuta(img, 8, baseline.MutaClockHz)
	if err != nil {
		b.Fatal(err)
	}
	muta0 := m8.DWT / 2
	cfg := core.DefaultConfig(8, codec.Options{Lossless: true})
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res, err = core.Encode(img, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	ours := cell.Seconds(res.StageCycles("dwt"))
	b.ReportMetric(1e3*ours, "model-ms")
	b.ReportMetric(muta0/ours, "speedup-vs-muta0")
}

// BenchmarkFig9_VsPentium compares the Cell against the Pentium IV
// model for both coding modes, overall and DWT-only.
func BenchmarkFig9_VsPentium(b *testing.B) {
	img := benchDial()
	for _, mode := range []struct {
		name string
		opt  codec.Options
	}{
		{"lossless", codec.Options{Lossless: true}},
		{"lossy", codec.Options{Lossless: false, Rate: 0.1}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var p4 baseline.StageSeconds
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				_, p4, err = baseline.EncodePentium(img, mode.opt)
				if err != nil {
					b.Fatal(err)
				}
				res, err = core.Encode(img, core.DefaultConfig(8, mode.opt))
				if err != nil {
					b.Fatal(err)
				}
			}
			cellSec := cell.Seconds(res.Cycles)
			b.ReportMetric(p4.Total()/cellSec, "overall-speedup")
			b.ReportMetric(p4.DWT/cell.Seconds(res.StageCycles("dwt")), "dwt-speedup")
		})
	}
}

// Benchmark_AblationFusedDWT quantifies the loop interleaving.
func Benchmark_AblationFusedDWT(b *testing.B) {
	img := benchDial()
	for _, naive := range []bool{false, true} {
		name := "fused"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig(8, codec.Options{Lossless: true})
			cfg.NaiveDWT = naive
			res := simulate(b, img, cfg)
			b.ReportMetric(1e3*cell.Seconds(res.StageCycles("dwt")), "dwt-model-ms")
		})
	}
}

// Benchmark_AblationBuffering sweeps multi-buffering depth.
func Benchmark_AblationBuffering(b *testing.B) {
	img := benchDial()
	for _, d := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("depth-%d", d), func(b *testing.B) {
			cfg := core.DefaultConfig(8, codec.Options{Lossless: true})
			cfg.BufferDepth = d
			simulate(b, img, cfg)
		})
	}
}

// Benchmark_AblationWorkQueue compares Tier-1 distribution strategies.
func Benchmark_AblationWorkQueue(b *testing.B) {
	img := benchDial()
	for _, static := range []bool{false, true} {
		name := "workqueue"
		if static {
			name = "static"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig(8, codec.Options{Lossless: true})
			cfg.StaticT1 = static
			res := simulate(b, img, cfg)
			b.ReportMetric(1e3*cell.Seconds(res.StageCycles("tier1")), "tier1-model-ms")
		})
	}
}

// Benchmark_AblationBlockSize compares 32x32 (Muta) vs 64x64 blocks.
func Benchmark_AblationBlockSize(b *testing.B) {
	img := benchDial()
	for _, cb := range []int{32, 64} {
		b.Run(fmt.Sprintf("cb-%d", cb), func(b *testing.B) {
			opt := codec.Options{Lossless: true, CBW: cb, CBH: cb}
			simulate(b, img, core.DefaultConfig(8, opt))
		})
	}
}

// --- Native wall-clock benchmarks of the library itself. ---

func BenchmarkEncodeLossless(b *testing.B) {
	img := benchDial()
	b.SetBytes(int64(img.W * img.H * 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Encode(img, Options{Lossless: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeLossyRate01(b *testing.B) {
	img := benchDial()
	b.SetBytes(int64(img.W * img.H * 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Encode(img, Options{Rate: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeParallelLossless(b *testing.B) {
	img := benchDial()
	b.SetBytes(int64(img.W * img.H * 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := EncodeParallelContext(context.Background(), img, Options{Lossless: true}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeParallelWorkers sweeps the worker pool width of the
// whole-pipeline native encoder — the wall-clock analogue of the
// paper's SPE-count scaling figures.
func BenchmarkEncodeParallelWorkers(b *testing.B) {
	img := benchDial()
	for _, mode := range []struct {
		name string
		opt  Options
	}{
		{"lossless", Options{Lossless: true}},
		{"lossy", Options{Rate: 0.1}},
	} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers-%d", mode.name, w), func(b *testing.B) {
				b.SetBytes(int64(img.W * img.H * 3))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := EncodeParallelContext(context.Background(), img, mode.opt, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDecodeParallelWorkers sweeps the worker pool width of the
// decoder across coding modes and tilings — the decode-side analogue
// of BenchmarkEncodeParallelWorkers. Throughput is reported in output
// pixel bytes, so lossless and lossy rows are directly comparable.
func BenchmarkDecodeParallelWorkers(b *testing.B) {
	img := benchDial()
	for _, mode := range []struct {
		name string
		opt  Options
	}{
		{"lossless", Options{Lossless: true}},
		{"lossy", Options{Rate: 0.1}},
		{"lossless-tiled", Options{Lossless: true, TileW: 128, TileH: 128}},
		{"lossy-tiled", Options{Rate: 0.1, TileW: 128, TileH: 128}},
	} {
		data, _, err := Encode(img, mode.opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers-%d", mode.name, w), func(b *testing.B) {
				b.SetBytes(int64(img.W * img.H * 3))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := DecodeWith(data, DecodeOptions{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMixedConcurrency prices the shared scheduler under
// concurrent mixed load: at concurrency c, each iteration runs c
// operations at once — a rotation of lossless encode, lossy encode, and
// decode, each asking for 4 workers — multiplexed onto the
// process-default scheduler. The goroutine high-water mark, which the
// scheduler holds at O(GOMAXPROCS + c), is reported as a metric so the
// bound is visible in the JSON artifact.
func BenchmarkMixedConcurrency(b *testing.B) {
	img := benchDial()
	lossless := Options{Lossless: true}
	lossy := Options{Rate: 0.1}
	data, _, err := Encode(img, lossless)
	if err != nil {
		b.Fatal(err)
	}
	const opWorkers = 4
	ctx := context.Background()
	for _, c := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("c-%d", c), func(b *testing.B) {
			b.SetBytes(int64(c * img.W * img.H * 3))
			b.ReportAllocs()
			var hwm atomic.Int64
			stop := make(chan struct{})
			var sampler sync.WaitGroup
			sampler.Add(1)
			go func() {
				defer sampler.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if g := int64(runtime.NumGoroutine()); g > hwm.Load() {
							hwm.Store(g)
						}
						time.Sleep(200 * time.Microsecond)
					}
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for k := 0; k < c; k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						var err error
						switch k % 3 {
						case 0:
							_, _, err = EncodeParallelContext(ctx, img, lossless, opWorkers)
						case 1:
							_, _, err = EncodeParallelContext(ctx, img, lossy, opWorkers)
						default:
							_, err = DecodeWithContext(ctx, data, DecodeOptions{Workers: opWorkers})
						}
						if err != nil {
							b.Error(err)
						}
					}(k)
				}
				wg.Wait()
			}
			b.StopTimer()
			close(stop)
			sampler.Wait()
			b.ReportMetric(float64(hwm.Load()), "goroutine-hwm")
		})
	}
}

func BenchmarkDecodeLossless(b *testing.B) {
	img := benchDial()
	data, _, err := Encode(img, Options{Lossless: true})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeResilient prices the best-effort decode path against
// the strict decoder on the same resilience-enabled stream: "plain" is
// the strict DecodeWith, "resilient" the total salvage path on an
// undamaged stream (the overhead of tolerant tile-part parsing plus
// damage accounting), and "resilient-damaged" the same stream with a
// corrupted byte mid-body (detection, concealment, and SOP resync on
// top).
func BenchmarkDecodeResilient(b *testing.B) {
	img := benchDial()
	data, _, err := Encode(img, Options{Lossless: true, Resilience: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resilient", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			_, rep, err := DecodeResilientContext(context.Background(), data, DecodeOptions{})
			if err != nil || rep.Damaged() {
				b.Fatal("undamaged stream reported damage")
			}
		}
	})
	damaged := append([]byte(nil), data...)
	damaged[2*len(damaged)/3] ^= 0x55
	b.Run("resilient-damaged", func(b *testing.B) {
		b.SetBytes(int64(len(damaged)))
		for i := 0; i < b.N; i++ {
			img, rep, err := DecodeResilientContext(context.Background(), damaged, DecodeOptions{})
			if err != nil || img == nil || rep == nil {
				b.Fatal("best-effort decode not total")
			}
		}
	})
}

func BenchmarkDWT53Forward(b *testing.B) {
	const n = 1024
	data := make([]int32, n*n)
	rng := workload.NewRNG(2)
	for i := range data {
		data[i] = int32(rng.Intn(512)) - 256
	}
	b.SetBytes(int64(4 * n * n))
	for i := 0; i < b.N; i++ {
		dwt.Forward53(data, n, n, n, 5)
		dwt.Inverse53(data, n, n, n, 5)
	}
}

func BenchmarkTier1Block(b *testing.B) {
	rng := workload.NewRNG(3)
	coef := make([]int32, 64*64)
	for i := range coef {
		if rng.Intn(4) == 0 {
			coef[i] = int32(rng.Intn(512)) - 256
		}
	}
	b.SetBytes(int64(4 * len(coef)))
	for i := 0; i < b.N; i++ {
		t1.Encode(coef, 64, 64, 64, dwt.HL, t1.ModeSingle, 1.0)
	}
}

func BenchmarkMQCoder(b *testing.B) {
	rng := workload.NewRNG(4)
	ops := make([]uint8, 1<<16) // context 0, decision in bit 0
	for i := range ops {
		if rng.Intn(8) == 0 {
			ops[i] = 1
		}
	}
	b.SetBytes(int64(len(ops)) / 8)
	var e mq.Encoder
	cxs := make([]mq.Context, 1)
	for i := 0; i < b.N; i++ {
		e.Reset()
		cxs[0] = mq.NewContext(0)
		e.EncodeBatch(ops, cxs)
		e.Flush()
	}
}

// Benchmark_AblationNUMA compares the uniform and per-chip memory
// models on the dual-chip blade.
func Benchmark_AblationNUMA(b *testing.B) {
	img := benchDial()
	for _, numa := range []bool{false, true} {
		name := "uniform"
		if numa {
			name = "numa"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig(16, codec.Options{Lossless: true})
			cfg.Cell = cell.QS20Config(16, 2)
			cfg.Cell.NUMA = numa
			simulate(b, img, cfg)
		})
	}
}

// Benchmark_AblationLoopParallel compares whole-pipeline vs
// Meerwald-style loop-level parallelization at 8 SPEs.
func Benchmark_AblationLoopParallel(b *testing.B) {
	img := benchDial()
	for _, loop := range []bool{false, true} {
		name := "whole-pipeline"
		if loop {
			name = "loop-level"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig(8, codec.Options{Lossless: false, Rate: 0.1})
			cfg.LoopParallel = loop
			simulate(b, img, cfg)
		})
	}
}

// BenchmarkEncodeMultiLayer prices the three-layer encode.
func BenchmarkEncodeMultiLayer(b *testing.B) {
	img := benchDial()
	b.SetBytes(int64(img.W * img.H * 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Encode(img, Options{LayerRates: []float64{0.02, 0.1, 0.4}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeTiled prices the tiled encode (tiles in parallel).
func BenchmarkEncodeTiled(b *testing.B) {
	img := benchDial()
	b.SetBytes(int64(img.W * img.H * 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := EncodeParallelContext(context.Background(), img, Options{Lossless: true, TileW: 128, TileH: 128}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegionDecode prices window decoding vs a full decode.
func BenchmarkRegionDecode(b *testing.B) {
	img := benchDial()
	data, _, err := Encode(img, Options{Lossless: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("window-64x64", func(b *testing.B) {
		r := codec.Rect{X0: img.W / 2, Y0: img.H / 2, W: 64, H: 64}
		for i := 0; i < b.N; i++ {
			if _, err := DecodeWith(data, DecodeOptions{Region: r}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSPUSchedule prices the pipeline micro-model itself.
func BenchmarkSPUSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spu.Schedule(spu.Lift97FixedKernel(256))
	}
}
