package decomp

import (
	"testing"
	"testing/quick"

	"j2kcell/internal/cell"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/sim"
)

func TestPadStride(t *testing.T) {
	cases := []struct{ w, want int }{
		{1, 32}, {31, 32}, {32, 32}, {33, 64}, {100, 128}, {3072, 3072},
	}
	for _, c := range cases {
		if got := imgmodel.PadStride(c.w); got != c.want {
			t.Errorf("PadStride(%d)=%d, want %d", c.w, got, c.want)
		}
	}
}

func TestArrayRowsAreLineAligned(t *testing.T) {
	m := cell.MustMachine(cell.DefaultConfig(1))
	a := NewArray[int32](m, 100, 7)
	for r := 0; r < a.H; r++ {
		if a.RowEA(r)%cell.CacheLine != 0 {
			t.Fatalf("row %d EA %#x not line aligned", r, a.RowEA(r))
		}
	}
	if a.Stride != 128 {
		t.Fatalf("stride %d, want 128 words for width 100", a.Stride)
	}
	if len(a.Row(3)) != 100 || len(a.PaddedRow(3)) != 128 {
		t.Fatal("row slicing wrong")
	}
	a.Set(3, 99, 42)
	if a.At(3, 99) != 42 || a.Row(3)[99] != 42 {
		t.Fatal("At/Set/Row disagree")
	}
}

func TestNewArrayPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero-size array")
		}
	}()
	NewArray[int32](cell.MustMachine(cell.DefaultConfig(1)), 0, 5)
}

func TestPartitionBasic(t *testing.T) {
	chunks := Partition(3072, 128, 8)
	if len(chunks) != 24 {
		t.Fatalf("got %d chunks, want 24", len(chunks))
	}
	covered := 0
	for i, c := range chunks {
		if !c.Aligned() {
			t.Errorf("chunk %d not aligned: %+v", i, c)
		}
		if c.PE != i%8 {
			t.Errorf("chunk %d assigned to %d, want round-robin %d", i, c.PE, i%8)
		}
		covered += c.W
	}
	if covered != 3072 {
		t.Fatalf("chunks cover %d words, want 3072", covered)
	}
}

func TestPartitionRemainderGoesToPPE(t *testing.T) {
	chunks := Partition(1000, 128, 4)
	last := chunks[len(chunks)-1]
	if last.PE != PPEChunk {
		t.Fatalf("remainder chunk PE=%d, want PPE", last.PE)
	}
	if last.W != 1000-7*128 {
		t.Fatalf("remainder width %d", last.W)
	}
	for _, c := range chunks[:len(chunks)-1] {
		if c.PE == PPEChunk {
			t.Fatal("non-remainder chunk assigned to PPE")
		}
		if c.W != 128 {
			t.Fatalf("constant-width violated: %d", c.W)
		}
	}
}

func TestPartitionNoSPEs(t *testing.T) {
	chunks := Partition(500, 128, 0)
	if len(chunks) != 1 || chunks[0].PE != PPEChunk || chunks[0].W != 500 {
		t.Fatalf("nSPE=0 partition: %+v", chunks)
	}
}

func TestPartitionPanicsOnBadChunkWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-line-multiple chunk width")
		}
	}()
	Partition(1000, 100, 4)
}

func TestChunkWidthFor(t *testing.T) {
	if w := ChunkWidthFor(3072, 8); w != 384 {
		t.Errorf("ChunkWidthFor(3072,8)=%d, want 384", w)
	}
	if w := ChunkWidthFor(100, 8); w != 32 {
		t.Errorf("tiny width must still give one line: got %d", w)
	}
	if w := ChunkWidthFor(100, 0); w != imgmodel.PadStride(100) {
		t.Errorf("no SPEs: got %d", w)
	}
}

func TestForPE(t *testing.T) {
	chunks := Partition(1024, 128, 3)
	seen := 0
	for pe := 0; pe < 3; pe++ {
		for _, c := range ForPE(chunks, pe) {
			if c.PE != pe {
				t.Fatal("ForPE returned foreign chunk")
			}
			seen++
		}
	}
	seen += len(ForPE(chunks, PPEChunk))
	if seen != len(chunks) {
		t.Fatalf("ForPE lost chunks: %d of %d", seen, len(chunks))
	}
}

// Property: Partition covers [0, width) exactly once, in order, with
// every chunk except possibly the last line-aligned.
func TestPropPartitionCoverage(t *testing.T) {
	f := func(w16 uint16, cw8, n8 uint8) bool {
		width := int(w16)%8000 + 1
		chunkW := (int(cw8)%16 + 1) * WordsPerLine
		nSPE := int(n8 % 17)
		chunks := Partition(width, chunkW, nSPE)
		x := 0
		for i, c := range chunks {
			if c.X0 != x || c.W <= 0 {
				return false
			}
			if i < len(chunks)-1 && !c.Aligned() {
				return false
			}
			if nSPE > 0 && c.PE != PPEChunk && (c.PE < 0 || c.PE >= nSPE) {
				return false
			}
			x += c.W
		}
		return x == width
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func streamTestMachine(w, h int) (*cell.Machine, *Array[int32], *Array[int32]) {
	m := cell.MustMachine(cell.DefaultConfig(2))
	src := NewArray[int32](m, w, h)
	dst := NewArray[int32](m, w, h)
	for i := range src.Data {
		src.Data[i] = int32(i%251) - 125
	}
	return m, src, dst
}

func TestStreamRowsMatchesSequential(t *testing.T) {
	const w, h = 300, 17
	for _, depth := range []int{1, 2, 4} {
		m, src, dst := streamTestMachine(w, h)
		kernel := func(v int32) int32 { return 2*v + 1 }
		chunks := Partition(w, 128, len(m.SPEs))
		for i, spe := range m.SPEs {
			spe, mine := spe, ForPE(chunks, i)
			m.Eng.Spawn("spe", 0, func(p *sim.Proc) {
				for _, ch := range mine {
					StreamRows(p, spe, src, dst, ch, depth, 1.0, func(row int, buf []int32) {
						for j := range buf {
							buf[j] = kernel(buf[j])
						}
					})
				}
			})
		}
		// PPE takes the remainder.
		ppe := m.PPEs[0]
		m.Eng.Spawn("ppe", 0, func(p *sim.Proc) {
			for _, ch := range ForPE(chunks, PPEChunk) {
				PPERows(p, ppe, src, dst, ch, 1.0, func(row int, buf []int32) {
					for j := range buf {
						buf[j] = kernel(buf[j])
					}
				})
			}
		})
		m.Run()
		for r := 0; r < h; r++ {
			for c := 0; c < w; c++ {
				if got, want := dst.At(r, c), kernel(src.At(r, c)); got != want {
					t.Fatalf("depth %d: dst[%d][%d]=%d, want %d", depth, r, c, got, want)
				}
			}
		}
	}
}

func TestStreamRowsConstantLSFootprint(t *testing.T) {
	// Local Store usage must not depend on image height — only on chunk
	// width and buffering depth.
	use := func(h int) int {
		m, src, dst := streamTestMachine(256, h)
		spe := m.SPEs[0]
		ch := Chunk{X0: 0, W: 128, PE: 0}
		m.Eng.Spawn("spe", 0, func(p *sim.Proc) {
			StreamRows(p, spe, src, dst, ch, 2, 1.0, func(int, []int32) {})
		})
		m.Run()
		return spe.LS.HighWater()
	}
	if a, b := use(4), use(64); a != b {
		t.Fatalf("LS footprint varies with height: %d vs %d", a, b)
	}
}

func TestStreamRowsDMAIsAlwaysAligned(t *testing.T) {
	// Every DMA issued by StreamRows is line-aligned with line-multiple
	// size, so payload bytes == line bytes (no overfetch).
	m, src, dst := streamTestMachine(640, 9)
	spe := m.SPEs[0]
	m.Eng.Spawn("spe", 0, func(p *sim.Proc) {
		StreamRows(p, spe, src, dst, Chunk{X0: 128, W: 256, PE: 0}, 3, 0.5, func(int, []int32) {})
	})
	m.Run()
	if spe.DMALineBytes != spe.DMABytes {
		t.Fatalf("overfetch: payload %d, lines %d", spe.DMABytes, spe.DMALineBytes)
	}
	if spe.DMABytes != int64(2*9*256*4) { // get+put per row
		t.Fatalf("moved %d bytes, want %d", spe.DMABytes, 2*9*256*4)
	}
}

func TestStreamRowsDeeperBufferingIsNotSlower(t *testing.T) {
	run := func(depth int) sim.Time {
		m, src, dst := streamTestMachine(2048, 64)
		spe := m.SPEs[0]
		m.Eng.Spawn("spe", 0, func(p *sim.Proc) {
			StreamRows(p, spe, src, dst, Chunk{X0: 0, W: 2048, PE: 0}, depth, 1.0, func(int, []int32) {})
		})
		return m.Run()
	}
	t1, t2 := run(1), run(2)
	if t2 >= t1 {
		t.Fatalf("double buffering not faster: depth1=%d depth2=%d", t1, t2)
	}
}

func TestStreamRowsRejectsMisalignedChunk(t *testing.T) {
	m, src, dst := streamTestMachine(300, 4)
	spe := m.SPEs[0]
	m.Eng.Spawn("spe", 0, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("misaligned chunk accepted")
			}
		}()
		StreamRows(p, spe, src, dst, Chunk{X0: 0, W: 300, PE: 0}, 1, 1.0, func(int, []int32) {})
	})
	m.Run()
}

func TestStreamRowsInPlace(t *testing.T) {
	m, src, _ := streamTestMachine(256, 8)
	want := make([]int32, len(src.Data))
	for i, v := range src.Data {
		want[i] = v
	}
	spe := m.SPEs[0]
	m.Eng.Spawn("spe", 0, func(p *sim.Proc) {
		StreamRows(p, spe, src, src, Chunk{X0: 0, W: 256, PE: 0}, 2, 1.0, func(row int, buf []int32) {
			for j := range buf {
				buf[j] = -buf[j]
			}
		})
	})
	m.Run()
	for r := 0; r < 8; r++ {
		for c := 0; c < 256; c++ {
			if src.At(r, c) != -want[r*src.Stride+c] {
				t.Fatalf("in-place stream wrong at %d,%d", r, c)
			}
		}
	}
}

func TestPPERowsGeometryMismatchPanics(t *testing.T) {
	m := cell.MustMachine(cell.DefaultConfig(0))
	a := NewArray[int32](m, 64, 4)
	b := NewArray[int32](m, 64, 5)
	m.Eng.Spawn("ppe", 0, func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("mismatched geometry accepted")
			}
		}()
		PPERows(p, m.PPEs[0], a, b, Chunk{X0: 0, W: 64, PE: PPEChunk}, 1, func(int, []int32) {})
	})
	m.Run()
}

func TestStreamRowsDepthNormalized(t *testing.T) {
	m, src, dst := streamTestMachine(128, 3)
	spe := m.SPEs[0]
	m.Eng.Spawn("spe", 0, func(p *sim.Proc) {
		StreamRows(p, spe, src, dst, Chunk{X0: 0, W: 128, PE: 0}, 0, 1.0, func(int, []int32) {})
	})
	m.Run() // depth 0 must behave as depth 1, not panic
	for r := 0; r < 3; r++ {
		for c := 0; c < 128; c++ {
			if dst.At(r, c) != src.At(r, c) {
				t.Fatal("identity stream failed")
			}
		}
	}
}
