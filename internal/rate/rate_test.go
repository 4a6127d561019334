package rate

import (
	"math"
	"testing"
	"testing/quick"

	"j2kcell/internal/workload"
)

// diminishing builds a typical R-D ladder: each pass costs more bytes
// and buys geometrically less distortion.
func diminishing(n int, seed uint32) BlockRD {
	rng := workload.NewRNG(seed)
	b := BlockRD{}
	r, d := 0, 0.0
	gain := 1000.0
	for i := 0; i < n; i++ {
		r += rng.Intn(40) + 5
		d += gain * (0.5 + rng.Float()*0.5)
		gain *= 0.55
		b.Rates = append(b.Rates, r)
		b.Dists = append(b.Dists, d)
	}
	return b
}

func TestHullSlopesStrictlyDecrease(t *testing.T) {
	for seed := uint32(1); seed < 30; seed++ {
		h := hull(diminishing(20, seed))
		if len(h) == 0 {
			t.Fatal("empty hull for non-trivial ladder")
		}
		for i := 1; i < len(h); i++ {
			if h[i].Slope >= h[i-1].Slope {
				t.Fatalf("seed %d: hull slopes not decreasing: %v then %v", seed, h[i-1].Slope, h[i].Slope)
			}
			if h[i].Pass <= h[i-1].Pass {
				t.Fatalf("hull passes not increasing")
			}
		}
	}
}

func TestHullDropsDominatedPoints(t *testing.T) {
	// Pass 2 is a terrible deal (1 byte of extra distortion for many
	// bytes); the hull must skip it in favor of pass 3.
	b := BlockRD{
		Rates: []int{10, 100, 110},
		Dists: []float64{1000, 1001, 2000},
	}
	h := hull(b)
	for _, p := range h {
		if p.Pass == 2 {
			t.Fatalf("dominated pass on hull: %+v", h)
		}
	}
}

func TestHullZeroBytePass(t *testing.T) {
	b := BlockRD{
		Rates: []int{10, 10, 20},
		Dists: []float64{100, 150, 160},
	}
	h := hull(b)
	// The free pass 2 must replace pass 1 as a hull point.
	if h[0].Pass != 2 {
		t.Fatalf("free pass not merged: %+v", h)
	}
}

func TestAllocateFitsBudget(t *testing.T) {
	var blocks []BlockRD
	for i := 0; i < 50; i++ {
		blocks = append(blocks, diminishing(15, uint32(i+1)))
	}
	for _, budget := range []int{0, 100, 1000, 5000, 1 << 20} {
		sel := Allocate(nil, blocks, budget)
		got := TotalBytes(blocks, sel)
		if got > budget {
			t.Fatalf("budget %d exceeded: %d", budget, got)
		}
		if budget >= 1<<20 {
			for i, k := range sel {
				if k != len(blocks[i].Rates) {
					t.Fatal("ample budget must keep everything")
				}
			}
		}
	}
}

func TestAllocateMonotoneInBudget(t *testing.T) {
	var blocks []BlockRD
	for i := 0; i < 30; i++ {
		blocks = append(blocks, diminishing(12, uint32(i+7)))
	}
	dist0 := make([]float64, len(blocks))
	for i, b := range blocks {
		dist0[i] = b.Dists[len(b.Dists)-1] * 1.1
	}
	lastD := math.Inf(1)
	lastB := -1
	for _, budget := range []int{200, 500, 1000, 2000, 4000, 8000} {
		sel := Allocate(nil, blocks, budget)
		bytes := TotalBytes(blocks, sel)
		d := TotalDistortion(blocks, dist0, sel)
		if bytes < lastB {
			t.Fatalf("bytes decreased with larger budget: %d after %d", bytes, lastB)
		}
		if d > lastD+1e-9 {
			t.Fatalf("distortion increased with larger budget: %v after %v", d, lastD)
		}
		lastD, lastB = d, bytes
	}
}

func TestAllocateNearOptimalVsExhaustive(t *testing.T) {
	// For a tiny instance, compare against brute force over hull points.
	blocks := []BlockRD{diminishing(4, 1), diminishing(4, 2), diminishing(4, 3)}
	dist0 := []float64{5000, 5000, 5000}
	budget := 150
	sel := Allocate(nil, blocks, budget)
	got := TotalDistortion(blocks, dist0, sel)

	// Brute force over all pass combinations that fit.
	best := math.Inf(1)
	for a := 0; a <= 4; a++ {
		for b := 0; b <= 4; b++ {
			for c := 0; c <= 4; c++ {
				s := []int{a, b, c}
				if TotalBytes(blocks, s) <= budget {
					if d := TotalDistortion(blocks, dist0, s); d < best {
						best = d
					}
				}
			}
		}
	}
	// λ-based allocation is optimal among hull points; allow a small
	// gap vs unconstrained brute force.
	if got > best*1.15+1e-9 {
		t.Fatalf("allocation distortion %v, brute-force best %v", got, best)
	}
}

func TestPropAllocateNeverExceedsBudget(t *testing.T) {
	f := func(seed uint32, nb uint8, budget16 uint16) bool {
		rng := workload.NewRNG(seed)
		n := int(nb)%20 + 1
		blocks := make([]BlockRD, n)
		for i := range blocks {
			blocks[i] = diminishing(rng.Intn(10)+1, rng.Uint32())
		}
		budget := int(budget16)
		sel := Allocate(nil, blocks, budget)
		if TotalBytes(blocks, sel) > budget {
			return false
		}
		for i, k := range sel {
			if k < 0 || k > len(blocks[i].Rates) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndDegenerateBlocks(t *testing.T) {
	blocks := []BlockRD{
		{}, // all-zero block: no passes
		{Rates: []int{5}, Dists: []float64{10}},
	}
	sel := Allocate(nil, blocks, 100)
	if sel[0] != 0 || sel[1] != 1 {
		t.Fatalf("degenerate allocation: %v", sel)
	}
}

func TestAllocateIgnoresHullProvenance(t *testing.T) {
	// The selection must be identical whether hulls are computed inside
	// the call or were cached beforehand (as the Tier-1 block jobs do).
	mk := func() []BlockRD {
		blocks := make([]BlockRD, 257)
		for i := range blocks {
			blocks[i] = diminishing(3+i%25, uint32(900+i))
		}
		return blocks
	}
	base := mk()
	budget := 0
	for _, b := range base {
		budget += b.Rates[len(b.Rates)-1]
	}
	budget /= 7
	want := Allocate(nil, mk(), budget)
	pre := mk()
	for i := range pre {
		pre[i].ComputeHull()
	}
	got := Allocate(nil, pre, budget)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("precomputed hulls: block %d selects %d, want %d", i, got[i], want[i])
		}
	}
}
