package baseline

import (
	"context"
	"testing"

	"j2kcell/internal/codec"
	"j2kcell/internal/core"
	"j2kcell/internal/workload"
)

func TestDWTSamplePasses(t *testing.T) {
	// One level of a 16x16 plane: 16*16*2 per component.
	if got := DWTSamplePasses(16, 16, 1, 1); got != 512 {
		t.Fatalf("got %d, want 512", got)
	}
	// Levels beyond MaxLevels add nothing.
	a := DWTSamplePasses(8, 8, 1, 3)
	b := DWTSamplePasses(8, 8, 1, 30)
	if a != b {
		t.Fatalf("level clamp broken: %d vs %d", a, b)
	}
	// Geometric series: total < 2*2*w*h per component.
	if got := DWTSamplePasses(256, 256, 3, 5); got >= 4*256*256*3 {
		t.Fatalf("DWT work %d implausible", got)
	}
}

func TestPentiumStageShapes(t *testing.T) {
	img := workload.Dial(256, 256, 3, 5)
	_, lossless, err := EncodePentium(img, codec.Options{Lossless: true})
	if err != nil {
		t.Fatal(err)
	}
	if lossless.Tier1 <= 0 || lossless.DWT <= 0 || lossless.Total() <= 0 {
		t.Fatalf("stages unpriced: %+v", lossless)
	}
	if lossless.Quant != 0 || lossless.RateCtl != 0 {
		t.Fatal("lossless path must not price quant/rate control")
	}
	if lossless.Tier1 < lossless.DWT {
		t.Fatal("Tier-1 must dominate the DWT on the Pentium")
	}

	_, lossy, err := EncodePentium(img, codec.Options{Rate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Quant <= 0 || lossy.RateCtl <= 0 {
		t.Fatalf("lossy stages missing: %+v", lossy)
	}
	// Fixed-point 9/7 on the Pentium is pricier than the 5/3.
	if lossy.DWT <= lossless.DWT {
		t.Fatal("lossy fixed-point DWT should cost more than 5/3")
	}
}

func TestPentiumSlowerThanEightSPEs(t *testing.T) {
	// Figure 9's headline: the Cell outperforms the Pentium overall.
	img := workload.Dial(384, 384, 5, 5)
	opt := codec.Options{Lossless: true}
	_, p4, err := EncodePentium(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Encode(img, core.DefaultConfig(8, opt))
	if err != nil {
		t.Fatal(err)
	}
	cellSec := float64(res.Cycles) / 3.2e9
	ratio := p4.Total() / cellSec
	if ratio < 1.5 || ratio > 8 {
		t.Fatalf("Cell/P4 lossless ratio %.2f outside plausible band (paper: 3.2)", ratio)
	}
}

func TestPentiumFasterThanOneSPEOnTier1(t *testing.T) {
	img := workload.Dial(256, 256, 2, 5)
	opt := codec.Options{Lossless: true}
	_, p4, err := EncodePentium(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Encode(img, core.DefaultConfig(1, opt))
	if err != nil {
		t.Fatal(err)
	}
	cellT1 := float64(res.StageCycles("tier1")) / 3.2e9
	if p4.Tier1 >= cellT1 {
		t.Fatalf("P4 Tier-1 %.4fs should beat one SPE %.4fs", p4.Tier1, cellT1)
	}
}

func TestMutaModelStructure(t *testing.T) {
	img := workload.Dial(320, 180, 3, 5)
	res, m8, err := EncodeMuta(img, 8, MutaClockHz)
	if err != nil {
		t.Fatal(err)
	}
	if m8.Total() <= 0 || m8.DWT <= 0 || m8.EBCOT <= 0 || m8.DMAGB <= 0 {
		t.Fatalf("muta model unpriced: %+v", m8)
	}
	// 32×32 blocks: block count must be roughly 4x the 64×64 count.
	opt := codec.Options{Lossless: true}
	res64, err := codec.Encode(context.Background(), img, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Blocks < 2*res64.Stats.Blocks {
		t.Fatalf("32x32 blocks %d vs 64x64 %d", res.Stats.Blocks, res64.Stats.Blocks)
	}
}

func TestMutaDWTDoesNotScale(t *testing.T) {
	img := workload.Dial(320, 180, 3, 5)
	_, m1, err := EncodeMuta(img, 1, MutaClockHz)
	if err != nil {
		t.Fatal(err)
	}
	_, m8, err := EncodeMuta(img, 8, MutaClockHz)
	if err != nil {
		t.Fatal(err)
	}
	if m8.DWT != m1.DWT {
		t.Fatalf("Muta DWT should be SPE-count independent: %v vs %v", m1.DWT, m8.DWT)
	}
	if m8.EBCOT >= m1.EBCOT {
		t.Fatal("Muta EBCOT must still scale with SPEs")
	}
}

func TestOursBeatsMutaOverall(t *testing.T) {
	// Figure 6's headline: our single-chip encoder beats their
	// dual-chip encoder.
	img := workload.Dial(480, 270, 3, 5) // 1/16-scale 1080p frame
	_, muta16, err := EncodeMuta(img, 16, MutaClockHz)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := core.Encode(img, core.DefaultConfig(8, codec.Options{Lossless: true}))
	if err != nil {
		t.Fatal(err)
	}
	oursSec := float64(ours.Cycles) / 3.2e9
	if oursSec >= muta16.Total() {
		t.Fatalf("ours (1 chip, %.4fs) should beat Muta1 (2 chips, %.4fs)", oursSec, muta16.Total())
	}
}
