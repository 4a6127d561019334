package t1

import (
	"math"
	"testing"
	"testing/quick"

	"j2kcell/internal/dwt"
	"j2kcell/internal/workload"
)

func randBlock(w, h int, seed uint32, amp int32) []int32 {
	rng := workload.NewRNG(seed)
	out := make([]int32, w*h)
	for i := range out {
		out[i] = int32(rng.Intn(int(2*amp+1))) - amp
	}
	return out
}

// sparseBlock mimics wavelet detail statistics: mostly zero, a few
// large values.
func sparseBlock(w, h int, seed uint32) []int32 {
	rng := workload.NewRNG(seed)
	out := make([]int32, w*h)
	for i := range out {
		switch rng.Intn(20) {
		case 0:
			out[i] = int32(rng.Intn(2000)) - 1000
		case 1:
			out[i] = int32(rng.Intn(16)) - 8
		}
	}
	return out
}

func roundTripBlock(t *testing.T, coef []int32, w, h int, orient dwt.Orient, mode Mode) *Block {
	t.Helper()
	blk := Encode(coef, w, h, w, orient, mode, 1.0)
	got := make([]int32, w*h)
	segLens := make([]int, len(blk.Passes))
	for i, p := range blk.Passes {
		segLens[i] = int(p.SegLen)
	}
	if err := Decode(got, w, h, w, orient, mode, blk.NumBPS, len(blk.Passes), blk.Data, segLens); err != nil {
		t.Fatal(err)
	}
	for i := range coef {
		if got[i] != coef[i] {
			t.Fatalf("%dx%d %v mode %d: coef %d decoded %d, want %d", w, h, orient, mode, i, got[i], coef[i])
		}
	}
	return blk
}

func TestRoundTripAllOrientations(t *testing.T) {
	for _, o := range []dwt.Orient{dwt.LL, dwt.HL, dwt.LH, dwt.HH} {
		for _, mode := range []Mode{ModeSingle, ModeTermAll} {
			roundTripBlock(t, randBlock(32, 32, uint32(o)+7, 500), 32, 32, o, mode)
		}
	}
}

func TestRoundTripSparse(t *testing.T) {
	for _, mode := range []Mode{ModeSingle, ModeTermAll} {
		roundTripBlock(t, sparseBlock(64, 64, 3), 64, 64, dwt.HL, mode)
	}
}

func TestRoundTripOddSizes(t *testing.T) {
	sizes := []struct{ w, h int }{
		{1, 1}, {1, 7}, {7, 1}, {3, 5}, {5, 3}, {64, 64}, {64, 37}, {13, 64}, {4, 4}, {2, 9},
	}
	for _, s := range sizes {
		roundTripBlock(t, randBlock(s.w, s.h, uint32(s.w*s.h), 300), s.w, s.h, dwt.LH, ModeSingle)
		roundTripBlock(t, randBlock(s.w, s.h, uint32(s.w+s.h), 300), s.w, s.h, dwt.HH, ModeTermAll)
	}
}

func TestPropRoundTrip(t *testing.T) {
	f := func(w8, h8 uint8, seed uint32, o8, m8 uint8) bool {
		w, h := int(w8)%40+1, int(h8)%40+1
		orient := dwt.Orient(o8 % 4)
		mode := Mode(m8 % 2)
		coef := sparseBlock(w, h, seed)
		blk := Encode(coef, w, h, w, orient, mode, 1.0)
		got := make([]int32, w*h)
		segLens := make([]int, len(blk.Passes))
		for i, p := range blk.Passes {
			segLens[i] = int(p.SegLen)
		}
		if err := Decode(got, w, h, w, orient, mode, blk.NumBPS, len(blk.Passes), blk.Data, segLens); err != nil {
			return false
		}
		for i := range coef {
			if got[i] != coef[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripFlushSetbits pins a block that TestPropRoundTrip once
// drew at random: with the SETBITS step of the MQ flush computing
// C + A - 1 instead of T.800 C.2.9's C + A, one of its per-pass
// codeword segments terminated on bits that decode differently.
func TestRoundTripFlushSetbits(t *testing.T) {
	roundTripBlock(t, sparseBlock(5, 17, 0xff617232), 5, 17, dwt.HH, ModeTermAll)
}

// weightedEnergy is Σ m²·gain² over a block: its weighted distortion
// with nothing decoded, which the passes' DistDeltas sum towards.
func weightedEnergy(coef []int32, gain float64) float64 {
	var s float64
	for _, v := range coef {
		m := float64(v)
		s += m * m * gain * gain
	}
	return s
}

// passDistortion sums the DistDeltas of a block's passes.
func passDistortion(b *Block) float64 {
	var s float64
	for _, p := range b.Passes {
		s += p.DistDelta
	}
	return s
}

func TestAllZeroBlock(t *testing.T) {
	coef := make([]int32, 16*16)
	blk := Encode(coef, 16, 16, 16, dwt.LL, ModeSingle, 1.0)
	if blk.NumBPS != 0 || len(blk.Passes) != 0 || len(blk.Data) != 0 || passDistortion(blk) != weightedEnergy(coef, 1.0) {
		t.Fatalf("all-zero block: %+v", blk)
	}
	got := make([]int32, 16*16)
	if err := Decode(got, 16, 16, 16, dwt.LL, ModeSingle, 0, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != 0 {
			t.Fatal("zero block decoded nonzero")
		}
	}
}

func TestSingleCoefficient(t *testing.T) {
	coef := make([]int32, 8*8)
	coef[27] = -137
	blk := roundTripBlock(t, coef, 8, 8, dwt.HH, ModeSingle)
	if blk.NumBPS != 8 {
		t.Fatalf("NumBPS %d for magnitude 137, want 8", blk.NumBPS)
	}
}

func TestPassStructure(t *testing.T) {
	coef := randBlock(32, 32, 5, 400)
	blk := Encode(coef, 32, 32, 32, dwt.LL, ModeTermAll, 1.0)
	if len(blk.Passes) != 3*blk.NumBPS-2 {
		t.Fatalf("%d passes for %d planes, want %d", len(blk.Passes), blk.NumBPS, 3*blk.NumBPS-2)
	}
	if blk.Passes[0].Type != PassCln {
		t.Fatal("first pass must be cleanup")
	}
	want := []PassType{PassSig, PassRef, PassCln}
	for i := 1; i < len(blk.Passes); i++ {
		if blk.Passes[i].Type != want[(i-1)%3] {
			t.Fatalf("pass %d type %v", i, blk.Passes[i].Type)
		}
	}
	// Cumulative lengths must be nondecreasing and end at len(Data).
	prev := 0
	for _, p := range blk.Passes {
		if p.CumLen < prev {
			t.Fatal("CumLen decreased")
		}
		prev = p.CumLen
	}
	if prev != len(blk.Data) {
		t.Fatalf("final CumLen %d != data %d", prev, len(blk.Data))
	}
}

func TestDistortionAccounting(t *testing.T) {
	coef := sparseBlock(32, 32, 9)
	blk := Encode(coef, 32, 32, 32, dwt.LH, ModeTermAll, 1.0)
	var sum float64
	for _, p := range blk.Passes {
		if p.DistDelta < -1e-9 {
			t.Fatalf("negative distortion delta %v in %v", p.DistDelta, p.Type)
		}
		sum += p.DistDelta
	}
	// Decoding everything reaches (near) zero residual distortion:
	// total deltas ≈ the block's weighted energy.
	if e0 := weightedEnergy(coef, 1.0); math.Abs(sum-e0) > 0.35*e0 {
		t.Fatalf("distortion deltas sum %v vs initial %v", sum, e0)
	}
}

func TestTruncatedDecodeImprovesWithPasses(t *testing.T) {
	coef := sparseBlock(64, 64, 21)
	blk := Encode(coef, 64, 64, 64, dwt.HL, ModeTermAll, 1.0)
	segLens := make([]int, len(blk.Passes))
	for i, p := range blk.Passes {
		segLens[i] = int(p.SegLen)
	}
	mse := func(n int) float64 {
		got := make([]int32, 64*64)
		cum := 0
		if n > 0 {
			cum = blk.Passes[n-1].CumLen
		}
		if err := Decode(got, 64, 64, 64, dwt.HL, ModeTermAll, blk.NumBPS, n, blk.Data[:cum], segLens[:n]); err != nil {
			t.Fatal(err)
		}
		var s float64
		for i := range coef {
			d := float64(got[i] - coef[i])
			s += d * d
		}
		return s
	}
	last := math.Inf(1)
	for _, n := range []int{1, len(blk.Passes) / 4, len(blk.Passes) / 2, len(blk.Passes)} {
		if n < 1 {
			n = 1
		}
		m := mse(n)
		if m > last*1.0001 {
			t.Fatalf("MSE rose from %v to %v at %d passes", last, m, n)
		}
		last = m
	}
	if last != 0 {
		t.Fatalf("full decode MSE %v, want 0", last)
	}
}

func TestScanCodedCounters(t *testing.T) {
	coef := randBlock(16, 16, 2, 100)
	blk := Encode(coef, 16, 16, 16, dwt.LL, ModeSingle, 1.0)
	if blk.TotalScanned() == 0 || blk.TotalCoded() == 0 {
		t.Fatal("counters not populated")
	}
	if blk.TotalCoded() > blk.TotalScanned()+blk.W*blk.H*blk.NumBPS {
		t.Fatal("coded decisions implausibly high")
	}
	// Every pass scans at most ~2x the block (run-length columns count
	// their stripe once for the RL decision and again for the tail).
	for _, p := range blk.Passes {
		if p.Scanned > 2*16*16 {
			t.Fatalf("pass scanned %d > 2x block size", p.Scanned)
		}
	}
}

func TestStrideIndependence(t *testing.T) {
	coef := randBlock(12, 10, 6, 200)
	// Embed in a wider stride.
	wide := make([]int32, 32*10)
	for y := 0; y < 10; y++ {
		copy(wide[y*32:], coef[y*12:(y+1)*12])
	}
	a := Encode(coef, 12, 10, 12, dwt.HH, ModeSingle, 1.0)
	b := Encode(wide, 12, 10, 32, dwt.HH, ModeSingle, 1.0)
	if string(a.Data) != string(b.Data) {
		t.Fatal("stride changed encoded bytes")
	}
	got := make([]int32, 32*10)
	segLens := []int{len(b.Data)}
	if err := Decode(got, 12, 10, 32, dwt.HH, ModeSingle, b.NumBPS, len(b.Passes), b.Data, segLens); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 10; y++ {
		for x := 0; x < 12; x++ {
			if got[y*32+x] != coef[y*12+x] {
				t.Fatal("strided decode mismatch")
			}
		}
	}
}

func TestGainScalesDistortion(t *testing.T) {
	coef := sparseBlock(16, 16, 4)
	a := Encode(coef, 16, 16, 16, dwt.LL, ModeSingle, 1.0)
	b := Encode(coef, 16, 16, 16, dwt.LL, ModeSingle, 2.0)
	sumA, sumB := passDistortion(a), passDistortion(b)
	if sumA <= 0 || math.Abs(sumB-4*sumA) > 1e-6*sumA {
		t.Fatalf("pass distortions not scaled by gain²: %v vs %v", sumB, sumA)
	}
	if string(a.Data) != string(b.Data) {
		t.Fatal("gain must not change the bitstream")
	}
}

func TestTermAllCostsMoreBytes(t *testing.T) {
	coef := sparseBlock(64, 64, 8)
	s := Encode(coef, 64, 64, 64, dwt.LL, ModeSingle, 1.0)
	ta := Encode(coef, 64, 64, 64, dwt.LL, ModeTermAll, 1.0)
	if len(ta.Data) <= len(s.Data) {
		t.Fatalf("TERMALL (%d B) should cost more than single (%d B)", len(ta.Data), len(s.Data))
	}
	// But not catastrophically more (≤ ~4 bytes per pass overhead).
	if len(ta.Data) > len(s.Data)+4*len(ta.Passes)+16 {
		t.Fatalf("TERMALL overhead too high: %d vs %d over %d passes", len(ta.Data), len(s.Data), len(ta.Passes))
	}
}

func TestCompresssionBeatsRawForSparseData(t *testing.T) {
	coef := sparseBlock(64, 64, 12)
	blk := Encode(coef, 64, 64, 64, dwt.HL, ModeSingle, 1.0)
	raw := 64 * 64 * 2 // ~11 significant bits + sign
	if len(blk.Data) >= raw {
		t.Fatalf("encoded %d bytes >= raw %d", len(blk.Data), raw)
	}
}

func TestDecodeErrorOnMissingSegLens(t *testing.T) {
	coef := randBlock(8, 8, 1, 50)
	blk := Encode(coef, 8, 8, 8, dwt.LL, ModeTermAll, 1.0)
	got := make([]int32, 64)
	err := Decode(got, 8, 8, 8, dwt.LL, ModeTermAll, blk.NumBPS, len(blk.Passes), blk.Data, nil)
	if err == nil {
		t.Fatal("missing segment lengths accepted")
	}
}
