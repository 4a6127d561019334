package imgmodel

import (
	"math"
	"testing"
)

func TestPlaneStridePadded(t *testing.T) {
	p := New[int32](33, 2)
	if p.Stride != 64 {
		t.Fatalf("stride %d, want 64", p.Stride)
	}
	if len(p.Row(1)) != 33 {
		t.Fatalf("row length %d", len(p.Row(1)))
	}
}

func TestPlaneAtSetCloneEqual(t *testing.T) {
	p := New[int32](10, 5)
	p.Set(4, 9, -7)
	if p.At(4, 9) != -7 {
		t.Fatal("At/Set broken")
	}
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q.Set(0, 0, 1)
	if p.Equal(q) {
		t.Fatal("Equal missed a difference")
	}
	if p.Equal(New[int32](10, 4)) {
		t.Fatal("Equal ignored geometry")
	}
}

func TestEqualIgnoresPadding(t *testing.T) {
	p, q := New[int32](10, 2), New[int32](10, 2)
	p.Data[20] = 99 // padding word of row 0 (stride is 32)
	if !p.Equal(q) {
		t.Fatal("Equal compared padding")
	}
}

func TestNewPlanePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New[int32](-1, 3)
}

func TestFPlane(t *testing.T) {
	p := New[float32](40, 3)
	if p.Stride != 64 {
		t.Fatalf("stride %d", p.Stride)
	}
	p.Set(2, 39, 1.5)
	if p.At(2, 39) != 1.5 || p.Row(2)[39] != 1.5 {
		t.Fatal("FPlane accessors broken")
	}
}

func TestImageCloneEqual(t *testing.T) {
	a := NewImage(8, 8, 3, 8)
	a.Comps[2].Set(3, 3, 77)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone unequal")
	}
	b.Comps[2].Set(3, 3, 78)
	if a.Equal(b) {
		t.Fatal("Equal missed change")
	}
}

func TestPSNR(t *testing.T) {
	a := NewImage(4, 4, 1, 8)
	b := a.Clone()
	if !math.IsInf(a.PSNR(b), 1) {
		t.Fatal("identical images must have +Inf PSNR")
	}
	// Uniform error of 1 LSB: MSE=1, PSNR = 20*log10(255) ≈ 48.13 dB.
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			b.Comps[0].Set(r, c, 1)
		}
	}
	got := a.PSNR(b)
	if math.Abs(got-48.1308) > 0.01 {
		t.Fatalf("PSNR %.4f, want 48.1308", got)
	}
}

// TestSubImageAndView pins the two ways to address a rectangle:
// SubImage copies it into an image of its own, View aliases it, so
// reads see the parent's samples and writes land in the parent.
func TestSubImageAndView(t *testing.T) {
	img := NewImage(40, 15, 3, 8)
	for c, p := range img.Comps {
		for y := 0; y < 15; y++ {
			for x := 0; x < 40; x++ {
				p.Set(y, x, int32(c*1000+y*40+x))
			}
		}
	}
	sub := img.SubImage(5, 3, 8, 6)
	if sub.W != 8 || sub.H != 6 || sub.Comps[1].At(0, 0) != 1000+3*40+5 {
		t.Fatalf("SubImage wrong: %d", sub.Comps[1].At(0, 0))
	}
	v := img.View(5, 3, 8, 6)
	if !v.Equal(sub) {
		t.Fatal("View reads differ from the SubImage copy")
	}
	if v.Comps[0].Stride != img.Comps[0].Stride || len(v.Comps[0].Data) != 5*img.Comps[0].Stride+8 {
		t.Fatalf("view stride %d, %d samples: want the parent's stride and no samples past the last row",
			v.Comps[0].Stride, len(v.Comps[0].Data))
	}
	for c, p := range v.Comps {
		for y := 0; y < 6; y++ {
			for x := range p.Row(y) {
				p.Set(y, x, -int32(c+1))
			}
		}
	}
	for c, p := range img.Comps {
		for y := 0; y < 15; y++ {
			for x := 0; x < 40; x++ {
				in := x >= 5 && x < 13 && y >= 3 && y < 9
				if got := p.At(y, x); (got == -int32(c+1)) != in {
					t.Fatalf("comp %d (%d,%d) = %d after writing the view", c, x, y, got)
				}
			}
		}
	}
	if sub.Comps[0].At(0, 0) != 3*40+5 {
		t.Fatal("writing the view changed the SubImage copy")
	}
	fp := New[float32](40, 15)
	fp.Set(4, 7, 2.5)
	if fv := fp.View(6, 4, 3, 2); fv.At(0, 1) != 2.5 || fv.Stride != fp.Stride {
		t.Fatal("FPlane view misplaced")
	}
}
