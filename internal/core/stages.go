package core

import (
	"j2kcell/internal/cell"
	"j2kcell/internal/decomp"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/mct"
	"j2kcell/internal/quant"
	"j2kcell/internal/sim"
	"j2kcell/internal/t1"
)

// pixelStageSPEs returns how many SPEs the pixel-wise stages may use:
// zero under the Meerwald-style LoopParallel ablation, which keeps
// everything but the DWT and Tier-1 sequential on the PPE.
func (e *encoder) pixelStageSPEs() int {
	if e.cfg.LoopParallel {
		return 0
	}
	return e.cfg.Cell.SPEs
}

// buildStages assembles the barrier-delimited pipeline of Figure 2.
func (e *encoder) buildStages() []stage {
	stages := []stage{
		e.readStage(),
		e.shiftMCTStage(),
		e.dwtStage(),
	}
	if !e.cfg.Codec.Lossless {
		stages = append(stages, e.quantStage())
	}
	stages = append(stages,
		e.tier1Stage(),
		stage{name: "ratecontrol", ppe: func(p *sim.Proc, pe *cell.PPE, idx int) {
			if idx == 0 {
				e.rateControlOnPPE(p, pe)
			}
		}},
		stage{name: "tier2+io", ppe: func(p *sim.Proc, pe *cell.PPE, idx int) {
			if idx == 0 {
				e.tier2OnPPE(p, pe)
			}
		}},
	)
	return stages
}

// readStage models reading the decoded BMP stream (sequential, PPE) and
// converting samples to 4-byte integers (parallel over column chunks) —
// the partially parallelized stage of Figure 2. The integer planes were
// staged into simulated main memory at plan time; the conversion pass
// streams them through the SPEs at the conversion cost.
func (e *encoder) readStage() stage {
	img := e.img
	chunks := decomp.Partition(img.W, e.chunkWidth(img.W), e.pixelStageSPEs())
	// Stage the raw samples now; the simulated kernels re-stream them.
	for c, pl := range img.Comps {
		arr := e.iplanes[c]
		for y := 0; y < img.H; y++ {
			copy(arr.Row(y), pl.Row(y))
		}
	}
	return stage{
		name: "read",
		spe: func(p *sim.Proc, s *cell.SPE, idx int) {
			for _, ch := range decomp.ForPE(chunks, idx) {
				for _, arr := range e.iplanes {
					decomp.StreamRows(p, s, arr, arr, ch, e.cfg.BufferDepth,
						cell.SPECosts.ReadConv, func(int, []int32) {})
					s.LS.Reset()
				}
			}
		},
		ppe: func(p *sim.Proc, pe *cell.PPE, idx int) {
			if idx != 0 {
				return
			}
			// Sequential byte-stream read of the BMP payload.
			raw := img.W * img.H * len(img.Comps)
			pe.Compute(p, cell.Cycles(cell.PPECosts.IOByte, raw))
			pe.Touch(p, int64(raw))
			for _, ch := range decomp.ForPE(chunks, decomp.PPEChunk) {
				for _, arr := range e.iplanes {
					decomp.PPERows(p, pe, arr, arr, ch, cell.PPECosts.ReadConv, func(int, []int32) {})
				}
			}
		},
	}
}

// shiftMCTStage merges the DC level shift with the inter-component
// transform into one pass over the pixels (Section 3.2), chunked with
// the decomposition scheme. Lossless output replaces the integer
// planes (RCT, or the plain shift); lossy output widens into the float
// planes (ICT, or the shift to float).
func (e *encoder) shiftMCTStage() stage {
	depth := e.img.Depth
	if e.cfg.Codec.Lossless {
		return shiftMCTStageOf(e, e.iplanes, func(in, out [][]int32) {
			for c := range out {
				copy(out[c], in[c])
			}
			if len(out) == 3 {
				mct.ForwardRCTRow(out[0], out[1], out[2], depth)
				return
			}
			for _, row := range out {
				mct.LevelShiftRow(row, depth)
			}
		})
	}
	return shiftMCTStageOf(e, e.fplanes, func(in [][]int32, out [][]float32) {
		if len(out) == 3 {
			mct.ForwardICTRow(in[0], in[1], in[2], out[0], out[1], out[2], depth)
			return
		}
		for c, row := range out {
			mct.ShiftToFloatRows(in[c], row, len(row), 0, 0, 0, 1, depth)
		}
	})
}

// shiftMCTStageOf streams the integer planes through color, one row of
// every component at a time, into the planes dst. color reads the
// component rows in and writes the component rows out; in and out may
// be the same rows.
func shiftMCTStageOf[T imgmodel.Sample](e *encoder, dst []*decomp.Array[T], color func(in [][]int32, out [][]T)) stage {
	img := e.img
	ncomp := len(img.Comps)
	chunks := decomp.Partition(img.W, e.chunkWidth(img.W), e.pixelStageSPEs())

	speChunk := func(p *sim.Proc, s *cell.SPE, ch decomp.Chunk) {
		s.LS.Reset()
		nbuf := e.cfg.BufferDepth
		in := make([]*rowRing[int32], ncomp)
		for c := range in {
			in[c] = newRowRing[int32](s, e.iplanes[c], ch.X0, ch.W, nbuf+1)
		}
		out := make([]*putRing[T], ncomp)
		for c := range out {
			out[c] = newPutRing[T](s, ch.W, nbuf)
		}
		rows, obs := make([][]int32, ncomp), make([][]T, ncomp)
		for y := 0; y < img.H; y++ {
			for c := range rows {
				rows[c] = in[c].get(p, y)
				if y+nbuf < img.H {
					in[c].prefetch(p, y+nbuf)
				}
				obs[c] = out[c].acquire(p, y)
			}
			color(rows, obs)
			s.Compute(p, cell.Cycles(cell.SPECosts.ShiftMCT, ncomp*ch.W))
			for c := range obs {
				out[c].put(p, y, dst[c], y, ch.X0)
			}
		}
		s.WaitAll(p)
	}

	ppeChunk := func(p *sim.Proc, pe *cell.PPE, ch decomp.Chunk) {
		rows, obs := make([][]int32, ncomp), make([][]T, ncomp)
		for y := 0; y < img.H; y++ {
			for c := range rows {
				rows[c], _ = seg(e.iplanes[c], y, ch.X0, ch.W)
				obs[c], _ = seg(dst[c], y, ch.X0, ch.W)
			}
			color(rows, obs)
		}
		pe.Compute(p, cell.Cycles(cell.PPECosts.ShiftMCT, ncomp*ch.W*img.H))
		pe.Touch(p, int64(8*ncomp*ch.W*img.H))
	}

	return stage{
		name: "shift+mct",
		spe: func(p *sim.Proc, s *cell.SPE, idx int) {
			for _, ch := range decomp.ForPE(chunks, idx) {
				speChunk(p, s, ch)
			}
		},
		ppe: func(p *sim.Proc, pe *cell.PPE, idx int) {
			if idx != 0 {
				return
			}
			for _, ch := range decomp.ForPE(chunks, decomp.PPEChunk) {
				ppeChunk(p, pe, ch)
			}
		},
	}
}

// dwtCost picks the DWT kernel's per-sample cost from a cost table: the
// 5/3 when lossless, else the 9/7 in the arithmetic FixedPoint97
// selects.
func (e *encoder) dwtCost(c cell.KernelCosts) float64 {
	switch {
	case e.cfg.Codec.Lossless:
		return c.DWT53
	case e.cfg.FixedPoint97:
		return c.DWT97Fix
	}
	return c.DWT97
}

// dwtStage runs all decomposition levels with the codec mode's filter.
func (e *encoder) dwtStage() stage {
	speCost, ppeCost := e.dwtCost(cell.SPECosts), e.dwtCost(cell.PPECosts)
	if e.cfg.Codec.Lossless {
		return dwtStageOf(e, e.iplanes, dwt.Lifting53, e.vertical53SPE, speCost, ppeCost)
	}
	return dwtStageOf(e, e.fplanes, dwt.Lifting97, e.vertical97SPE, speCost, ppeCost)
}

// dwtStageOf runs all decomposition levels over planes: per level,
// vertical filtering over column groups (vertSPE on the SPEs, k's fused
// sweep for the PPE's remainder group), an internal barrier, then
// horizontal filtering over row ranges, and another barrier.
func dwtStageOf[T imgmodel.Sample](e *encoder, planes []*decomp.Array[T], k dwt.Lifting[T],
	vertSPE func(p *sim.Proc, s *cell.SPE, arr *decomp.Array[T], ch decomp.Chunk, lh int, cost float64),
	speCost, ppeCost float64) stage {
	img := e.img
	nSPE := e.cfg.Cell.SPEs
	bar := &sim.Barrier{N: nSPE + e.cfg.Cell.PPEThreads}

	type level struct {
		lw, lh    int
		chunks    []decomp.Chunk
		rowsPerPE int
	}
	var levels []level
	for l := 0; l < e.cfg.Codec.Levels; l++ {
		lw, lh := dwt.LevelDims(img.W, img.H, l)
		if lw <= 1 && lh <= 1 {
			break
		}
		lv := level{lw: lw, lh: lh}
		if lw >= decomp.WordsPerLine {
			lv.chunks = decomp.Partition(lw, e.chunkWidth(lw), nSPE)
		} else {
			lv.chunks = []decomp.Chunk{{X0: 0, W: lw, PE: decomp.PPEChunk}}
		}
		if nSPE > 0 {
			lv.rowsPerPE = lh / nSPE
		}
		levels = append(levels, lv)
	}

	speWork := func(p *sim.Proc, s *cell.SPE, idx int) {
		for _, lv := range levels {
			s.LS.Reset()
			for _, ch := range decomp.ForPE(lv.chunks, idx) {
				for _, arr := range planes {
					vertSPE(p, s, arr, ch, lv.lh, speCost)
					s.LS.Reset()
				}
			}
			s.WaitAll(p)
			p.Arrive(bar)
			s.LS.Reset()
			r0, r1 := idx*lv.rowsPerPE, (idx+1)*lv.rowsPerPE
			for _, arr := range planes {
				horizontalSPE(p, s, e, k, arr, r0, r1, lv.lw, speCost)
				s.LS.Reset()
			}
			s.WaitAll(p)
			p.Arrive(bar)
		}
	}

	ppeWork := func(p *sim.Proc, pe *cell.PPE, idx int) {
		for _, lv := range levels {
			if idx == 0 {
				for _, ch := range decomp.ForPE(lv.chunks, decomp.PPEChunk) {
					for _, arr := range planes {
						verticalPPE(p, pe, k, arr, ch.X0, ch.W, lv.lh, ppeCost)
					}
				}
			}
			p.Arrive(bar)
			if idx == 0 {
				r0 := nSPE * lv.rowsPerPE // remainder rows
				for _, arr := range planes {
					horizontalPPE(p, pe, k, arr, r0, lv.lh, lv.lw, ppeCost)
				}
			}
			p.Arrive(bar)
		}
	}

	return stage{name: "dwt", spe: speWork, ppe: ppeWork}
}

// quantStage quantizes the 9/7 coefficients into integer indices,
// full-row chunked; the per-column step follows the subband geometry.
func (e *encoder) quantStage() stage {
	img, opt := e.img, e.cfg.Codec
	bands := dwt.Layout(img.W, img.H, opt.Levels)
	chunks := decomp.Partition(img.W, e.chunkWidth(img.W), e.pixelStageSPEs())

	// deltaSegs returns the per-column quantizer steps intersecting
	// [x0, x0+w) on row y as (offset, length, delta) runs.
	type drun struct {
		off, n int
		delta  float32
	}
	deltaSegs := func(y, x0, w int) []drun {
		var runs []drun
		for _, b := range bands {
			if b.W == 0 || b.H == 0 || y < b.Y0 || y >= b.Y0+b.H {
				continue
			}
			lo, hi := b.X0, b.X0+b.W
			if lo < x0 {
				lo = x0
			}
			if hi > x0+w {
				hi = x0 + w
			}
			if lo >= hi {
				continue
			}
			runs = append(runs, drun{
				off:   lo - x0,
				n:     hi - lo,
				delta: float32(quant.StepFor(opt.BaseDelta, opt.Levels, b.Orient, b.Level)),
			})
		}
		return runs
	}
	quantRow := func(y, x0 int, src []float32, dst []int32) {
		for _, r := range deltaSegs(y, x0, len(src)) {
			quant.QuantizeRow(dst[r.off:r.off+r.n], src[r.off:r.off+r.n], r.delta)
		}
	}

	return stage{
		name: "quant",
		spe: func(p *sim.Proc, s *cell.SPE, idx int) {
			for c := range e.fplanes {
				for _, ch := range decomp.ForPE(chunks, idx) {
					s.LS.Reset()
					nbuf := e.cfg.BufferDepth
					in := newRowRing[float32](s, e.fplanes[c], ch.X0, ch.W, nbuf+1)
					out := newPutRing[int32](s, ch.W, nbuf)
					for y := 0; y < nbuf && y < img.H; y++ {
						in.prefetch(p, y)
					}
					for y := 0; y < img.H; y++ {
						src := in.get(p, y)
						if y+nbuf < img.H {
							in.prefetch(p, y+nbuf)
						}
						dst := out.acquire(p, y)
						quantRow(y, ch.X0, src, dst)
						s.Compute(p, cell.Cycles(cell.SPECosts.Quant, ch.W))
						out.put(p, y, e.iplanes[c], y, ch.X0)
					}
					s.WaitAll(p)
				}
			}
		},
		ppe: func(p *sim.Proc, pe *cell.PPE, idx int) {
			if idx != 0 {
				return
			}
			for c := range e.fplanes {
				for _, ch := range decomp.ForPE(chunks, decomp.PPEChunk) {
					for y := 0; y < img.H; y++ {
						src, _ := seg(e.fplanes[c], y, ch.X0, ch.W)
						dst, _ := seg(e.iplanes[c], y, ch.X0, ch.W)
						quantRow(y, ch.X0, src, dst)
					}
					pe.Compute(p, cell.Cycles(cell.PPECosts.Quant, ch.W*img.H))
					pe.Touch(p, int64(8*ch.W*img.H))
				}
			}
		},
	}
}

// tier1Stage codes the blocks over a shared work queue (PPE and SPE
// threads both encode; the PPE runs branchy Tier-1 faster, Section 5.1)
// or, in the StaticT1 ablation, a fixed round-robin distribution.
func (e *encoder) tier1Stage() stage {
	mode := e.cfg.Codec.Mode()
	q := &workQueue{n: len(e.jobs)}
	nSPE := e.cfg.Cell.SPEs

	encodeJob := func(i int) *t1.Block {
		j := e.jobs[i]
		arr := e.iplanes[j.Comp]
		return t1.Encode(arr.Data[j.Y0*arr.Stride+j.X0:], j.W, j.H, arr.Stride, j.Band.Orient, mode, j.Gain)
	}

	speJob := func(p *sim.Proc, s *cell.SPE, i int) {
		j := e.jobs[i]
		arr := e.iplanes[j.Comp]
		// Fetch the block rows (aligned supersets of arbitrary windows).
		scratch, lsa := cell.AllocLS[int32](s.LS, roundUp4(j.W)+8)
		for y := 0; y < j.H; y++ {
			alignedFetchCost(p, s, arr, j.Y0+y, j.X0, j.W, scratch, lsa)
		}
		blk := encodeJob(i)
		s.Compute(p, cell.T1Cycles(cell.SPECosts, blk.TotalScanned(), blk.TotalCoded()))
		// Write the compressed bytes back to main memory.
		if n := len(blk.Data); n > 0 {
			outWords := (n + 15) / 16 * 4
			buf, blsa := cell.AllocLS[int32](s.LS, outWords)
			dst := make([]int32, outWords)
			ea := e.m.AllocEA(int64(4*outWords), 16)
			cell.Put(p, s, dst, ea, buf, blsa)
		}
		e.blocks[i] = blk
	}

	ppeJob := func(p *sim.Proc, pe *cell.PPE, i int) {
		blk := encodeJob(i)
		pe.Compute(p, cell.T1Cycles(cell.PPECosts, blk.TotalScanned(), blk.TotalCoded()))
		pe.Touch(p, int64(4*e.jobs[i].W*e.jobs[i].H+len(blk.Data)))
		e.blocks[i] = blk
	}

	return stage{
		name: "tier1",
		spe: func(p *sim.Proc, s *cell.SPE, idx int) {
			if e.cfg.StaticT1 {
				for i := idx; i < len(e.jobs); i += max(nSPE, 1) {
					s.LS.Reset()
					speJob(p, s, i)
				}
				return
			}
			for {
				i, ok := q.pop(p, queuePopSPECycles)
				if !ok {
					return
				}
				s.LS.Reset()
				speJob(p, s, i)
			}
		},
		ppe: func(p *sim.Proc, pe *cell.PPE, idx int) {
			if !e.cfg.PPET1 && nSPE > 0 {
				return
			}
			if e.cfg.StaticT1 {
				if nSPE == 0 && idx == 0 {
					for i := range e.jobs {
						ppeJob(p, pe, i)
					}
				}
				return
			}
			for {
				i, ok := q.pop(p, queuePopPPECycles)
				if !ok {
					return
				}
				ppeJob(p, pe, i)
			}
		},
	}
}
