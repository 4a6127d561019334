package core

import (
	"context"
	"testing"

	"j2kcell/internal/cell"
	"j2kcell/internal/codec"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/workload"
)

func encodeBoth(t *testing.T, img *imgmodel.Image, opt codec.Options, cfg Config) (*Result, *codec.Result) {
	t.Helper()
	cfg.Codec = opt
	par, err := Encode(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := codec.Encode(context.Background(), img, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	return par, seq
}

// parityImages are the byte-identity inputs: an RGB image, which runs
// the component transform, and a one-component image, which runs the
// plain level shift.
func parityImages() map[string]*imgmodel.Image {
	gray := workload.Dial(97, 61, 7, 4)
	gray.Comps = gray.Comps[:1]
	return map[string]*imgmodel.Image{"rgb": workload.Dial(160, 120, 7, 4), "gray": gray}
}

func TestParallelMatchesSequentialLossless(t *testing.T) {
	for name, img := range parityImages() {
		for _, nspe := range []int{0, 1, 2, 8} {
			cfg := DefaultConfig(nspe, codec.Options{})
			par, seq := encodeBoth(t, img, codec.Options{Lossless: true}, cfg)
			if string(par.Data) != string(seq.Data) {
				t.Fatalf("%s nSPE=%d: parallel lossless output differs from sequential (%d vs %d bytes)",
					name, nspe, len(par.Data), len(seq.Data))
			}
		}
	}
}

func TestParallelMatchesSequentialLossy(t *testing.T) {
	for name, img := range parityImages() {
		for _, nspe := range []int{0, 1, 3, 8} {
			cfg := DefaultConfig(nspe, codec.Options{})
			par, seq := encodeBoth(t, img, codec.Options{Lossless: false, Rate: 0.1}, cfg)
			if string(par.Data) != string(seq.Data) {
				t.Fatalf("%s nSPE=%d: parallel lossy output differs from sequential", name, nspe)
			}
		}
	}
}

func TestParallelMatchesAcrossKnobs(t *testing.T) {
	base := codec.Options{Lossless: true}
	ref, err := codec.Encode(context.Background(), workload.Dial(130, 90, 7, 4), base, 1)
	if err != nil {
		t.Fatal(err)
	}
	knobs := []Config{
		{Cell: cell.DefaultConfig(4), BufferDepth: 1},
		{Cell: cell.DefaultConfig(4), BufferDepth: 6},
		{Cell: cell.DefaultConfig(4), ChunkWidth: 32},
		{Cell: cell.DefaultConfig(4), NaiveDWT: true},
		{Cell: cell.DefaultConfig(4), StaticT1: true},
		{Cell: cell.DefaultConfig(4), PPET1: true},
		{Cell: cell.QS20Config(16, 2)},
	}
	for i, cfg := range knobs {
		cfg.Codec = base
		par, err := Encode(workload.Dial(130, 90, 7, 4), cfg)
		if err != nil {
			t.Fatalf("knob %d: %v", i, err)
		}
		if string(par.Data) != string(ref.Data) {
			t.Fatalf("knob %d changed the output bytes", i)
		}
	}
}

func TestDecodableOutput(t *testing.T) {
	img := workload.Dial(96, 96, 5, 5)
	cfg := DefaultConfig(4, codec.Options{Lossless: true})
	par, err := Encode(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.Decode(context.Background(), par.Data, codec.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(got) {
		t.Fatal("parallel output did not round trip")
	}
}

func TestScalingLossless(t *testing.T) {
	img := workload.Dial(256, 256, 9, 5)
	var prev *Result
	times := map[int]float64{}
	for _, n := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig(n, codec.Options{Lossless: true})
		res, err := Encode(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		times[n] = float64(res.Cycles)
		prev = res
	}
	_ = prev
	s2 := times[1] / times[2]
	s8 := times[1] / times[8]
	if s2 < 1.4 {
		t.Fatalf("2-SPE speedup %.2f too low", s2)
	}
	if s8 < 3.0 {
		t.Fatalf("8-SPE speedup %.2f too low", s8)
	}
	if s8 > 8.5 {
		t.Fatalf("8-SPE speedup %.2f superlinear — model broken", s8)
	}
}

func TestLossyFlattensFromRateControl(t *testing.T) {
	img := workload.Dial(256, 256, 9, 5)
	opt := codec.Options{Lossless: false, Rate: 0.1}
	t1 := mustEncode(t, img, DefaultConfig(1, opt))
	t8 := mustEncode(t, img, DefaultConfig(8, opt))
	sLossy := float64(t1.Cycles) / float64(t8.Cycles)

	lo := codec.Options{Lossless: true}
	l1 := mustEncode(t, img, DefaultConfig(1, lo))
	l8 := mustEncode(t, img, DefaultConfig(8, lo))
	sLossless := float64(l1.Cycles) / float64(l8.Cycles)

	if sLossy >= sLossless {
		t.Fatalf("lossy speedup %.2f should trail lossless %.2f (sequential rate control)", sLossy, sLossless)
	}
	if t8.StageCycles("ratecontrol") == 0 {
		t.Fatal("rate control stage unpriced")
	}
}

func mustEncode(t *testing.T, img *imgmodel.Image, cfg Config) *Result {
	t.Helper()
	res, err := Encode(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFusedDWTMovesLessData(t *testing.T) {
	img := workload.Dial(256, 256, 3, 4)
	opt := codec.Options{Lossless: true}
	fused, err := Encode(img, DefaultConfig(4, opt))
	if err != nil {
		t.Fatal(err)
	}
	cfgN := DefaultConfig(4, opt)
	cfgN.NaiveDWT = true
	naive, err := Encode(img, cfgN)
	if err != nil {
		t.Fatal(err)
	}
	if naive.DMABytes <= fused.DMABytes {
		t.Fatalf("naive DWT DMA %d should exceed fused %d", naive.DMABytes, fused.DMABytes)
	}
	if naive.Cycles <= fused.Cycles {
		t.Fatalf("naive DWT (%d cycles) should be slower than fused (%d)", naive.Cycles, fused.Cycles)
	}
}

func TestWorkQueueBeatsStaticT1(t *testing.T) {
	// The dial image has wildly uneven block complexity; dynamic
	// distribution must win.
	img := workload.Dial(256, 256, 4, 6)
	opt := codec.Options{Lossless: true}
	wq, err := Encode(img, DefaultConfig(8, opt))
	if err != nil {
		t.Fatal(err)
	}
	cfgS := DefaultConfig(8, opt)
	cfgS.StaticT1 = true
	st, err := Encode(img, cfgS)
	if err != nil {
		t.Fatal(err)
	}
	if float64(wq.StageCycles("tier1")) > 1.02*float64(st.StageCycles("tier1")) {
		t.Fatalf("work queue Tier-1 (%d) slower than static (%d)",
			wq.StageCycles("tier1"), st.StageCycles("tier1"))
	}
}

func TestLSNeverOverflows(t *testing.T) {
	img := workload.Dial(320, 240, 2, 4)
	for _, n := range []int{1, 8} {
		res, err := Encode(img, DefaultConfig(n, codec.Options{Lossless: false, Rate: 0.2}))
		if err != nil {
			t.Fatal(err)
		}
		if res.LSHighWater > cell.LSSize {
			t.Fatalf("LS high water %d exceeds capacity", res.LSHighWater)
		}
		if res.LSHighWater == 0 && n > 0 {
			t.Fatal("LS accounting missing")
		}
	}
}

func TestStageBreakdownCoversMakespan(t *testing.T) {
	img := workload.Dial(128, 128, 3, 3)
	res, err := Encode(img, DefaultConfig(4, codec.Options{Lossless: true}))
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range res.Stages {
		if s.Cycles < 0 {
			t.Fatalf("negative stage time: %+v", s)
		}
		sum += int64(s.Cycles)
	}
	if sum != int64(res.Cycles) {
		t.Fatalf("stage times sum %d != makespan %d", sum, res.Cycles)
	}
}

func TestPPEOnlyConfiguration(t *testing.T) {
	img := workload.Dial(96, 96, 1, 3)
	res, err := Encode(img, DefaultConfig(0, codec.Options{Lossless: true}))
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := codec.Encode(context.Background(), img, codec.Options{Lossless: true}, 1)
	if string(res.Data) != string(seq.Data) {
		t.Fatal("PPE-only output differs")
	}
	if res.DMABytes != 0 {
		t.Fatal("PPE-only run should issue no SPE DMA")
	}
}

func TestLoopParallelMatchesAndCapsSpeedup(t *testing.T) {
	img := workload.Dial(256, 256, 9, 5)
	opt := codec.Options{Lossless: false, Rate: 0.1}
	seq, err := codec.Encode(context.Background(), img, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	speedup := func(loop bool) float64 {
		var times [2]float64
		for i, n := range []int{1, 8} {
			cfg := DefaultConfig(n, opt)
			cfg.LoopParallel = loop
			res, err := Encode(img, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if string(res.Data) != string(seq.Data) {
				t.Fatalf("loop=%v n=%d: output differs", loop, n)
			}
			times[i] = float64(res.Cycles)
		}
		return times[0] / times[1]
	}
	whole, loop := speedup(false), speedup(true)
	if loop >= whole {
		t.Fatalf("loop-level speedup %.2f should trail whole-pipeline %.2f", loop, whole)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	img := workload.Dial(256, 256, 3, 5)
	res, err := Encode(img, DefaultConfig(8, codec.Options{Lossless: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SPEBusy) != 8 || len(res.PPEBusy) != 1 {
		t.Fatalf("busy arrays: %d SPE, %d PPE", len(res.SPEBusy), len(res.PPEBusy))
	}
	u := res.Utilization()
	if u <= 0.2 || u > 1.0 {
		t.Fatalf("utilization %.2f implausible", u)
	}
	// The work queue keeps SPE busy-time spread within a modest band.
	min, max := res.SPEBusy[0], res.SPEBusy[0]
	for _, b := range res.SPEBusy {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if float64(max) > 2.2*float64(min) {
		t.Fatalf("SPE busy imbalance: min %d max %d", min, max)
	}
	// PPE Tier-1 participation raises utilization.
	cfg := DefaultConfig(8, codec.Options{Lossless: true})
	cfg.PPET1 = true
	res2, err := Encode(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Utilization() <= u {
		t.Fatalf("PPE Tier-1 should raise utilization: %.3f vs %.3f", res2.Utilization(), u)
	}
}

func TestNUMAOutputIdenticalAndSlower(t *testing.T) {
	img := workload.Dial(256, 256, 5, 5)
	opt := codec.Options{Lossless: true}
	uni := DefaultConfig(16, opt)
	uni.Cell = cell.QS20Config(16, 1)
	base := mustEncode(t, img, uni)

	numa := DefaultConfig(16, opt)
	numa.Cell = cell.QS20Config(16, 1)
	numa.Cell.NUMA = true
	res := mustEncode(t, img, numa)

	if string(res.Data) != string(base.Data) {
		t.Fatal("NUMA model changed the output bytes")
	}
	if res.Cycles < base.Cycles {
		t.Fatalf("NUMA run (%d) should not beat the uniform model (%d)", res.Cycles, base.Cycles)
	}
	if float64(res.Cycles) > 1.5*float64(base.Cycles) {
		t.Fatalf("NUMA penalty implausibly large: %d vs %d", res.Cycles, base.Cycles)
	}
}
