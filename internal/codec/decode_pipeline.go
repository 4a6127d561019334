package codec

import (
	"j2kcell/internal/codestream"
	"j2kcell/internal/decomp"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/mct"
	"j2kcell/internal/obs"
	"j2kcell/internal/quant"
	"j2kcell/internal/t1"
)

// Decode-side pipeline stages. The inverse chain mirrors the encoder's
// stage decomposition through the same atomic work queue:
//
//	plane zeroing              — row stripes (pooled planes arrive dirty)
//	Tier-1 block decode        — dynamically-sized partitions of the
//	                             block list (see partitionDecodeTasks)
//	dequantization             — one job per (component × band)
//	multi-level inverse DWT    — horizontal: row stripes; vertical:
//	                             cache-line column groups; barrier per
//	                             phase and per level, levels walked
//	                             finest-last (the reverse of DWT53/97)
//	inverse MCT + clamp        — row stripes, fused with the plane→image
//	                             copy on the reversible path
//
// Every split is elementwise-independent, so the reconstructed pixels
// are bit-identical to the sequential decoder for every worker count,
// kernel set, and tiling — the decode half of the DESIGN.md §5
// invariant.

// ZeroPlanes clears pooled coefficient planes stripe-parallel. Planes
// from imgmodel.GetPlane carry arbitrary prior contents, and code-block
// regions a truncated or region-limited stream never includes must read
// as zero coefficients; the full padded stride is cleared so stride
// padding never leaks stale data downstream either.
func (p *Pipeline) ZeroPlanes(planes []*imgmodel.Plane) {
	if len(planes) == 0 {
		return
	}
	h := planes[0].H
	ns := stripes(h)
	p.run(obs.StageZero, 0, ns*len(planes), func(i int) {
		pl := planes[i/ns]
		y0, y1 := stripeBounds(i%ns, h)
		clear(pl.Data[y0*pl.Stride : y1*pl.Stride])
	})
}

// Dequantize converts quantizer indices back to coefficients, one job
// per (component, band), into pooled float planes. The subbands tile
// the plane, so every live sample of the pooled planes is written; the
// stride padding is never read by the inverse transforms.
func (p *Pipeline) Dequantize(h *codestream.Header, bands []dwt.Band, planes []*imgmodel.Plane) []*imgmodel.FPlane {
	w, hh := planes[0].W, planes[0].H
	fplanes := make([]*imgmodel.FPlane, len(planes))
	for c := range fplanes {
		fplanes[c] = imgmodel.GetFPlane(w, hh)
	}
	p.run(obs.StageDeq, 0, len(planes)*len(bands), func(i int) {
		c, b := i/len(bands), bands[i%len(bands)]
		if b.W == 0 || b.H == 0 {
			return
		}
		pl, fp := planes[c], fplanes[c]
		delta := float32(quant.StepFor(h.BaseDelta, h.Levels, b.Orient, b.Level))
		for y := b.Y0; y < b.Y0+b.H; y++ {
			quant.DequantizeRow(fp.Data[y*fp.Stride+b.X0:][:b.W], pl.Data[y*pl.Stride+b.X0:][:b.W], delta)
		}
	})
	return fplanes
}

// IDWT53 undoes reversible decomposition levels levels-1 down to stop
// over all planes: per level, horizontal inverse rows first, then the
// vertical inverse over column groups — the exact reverse of DWT53's
// phase order, with the same barriers. Bit-identical to
// dwt.InverseLevels53 on each plane.
func (p *Pipeline) IDWT53(planes []*imgmodel.Plane, levels, stop int) {
	w, h := planes[0].W, planes[0].H
	rec := p.rec
	for l := levels - 1; l >= stop; l-- {
		lw, lh := dwt.LevelDims(w, h, l)
		if lw <= 1 && lh <= 1 {
			continue
		}
		if lw > 1 {
			ns := stripes(lh)
			p.run(obs.StageIDWTHorz, int32(l), ns*len(planes), func(i int) {
				pl := planes[i/ns]
				y0, y1 := stripeBounds(i%ns, lh)
				tmp := getI32(lw)
				dwt.InvHorizontal53Rows(pl.Data, lw, pl.Stride, y0, y1, *tmp)
				putI32(tmp)
				rec.Add(obs.CtrDWTBytesMoved, int64(y1-y0)*int64(lw)*8)
			})
		}
		if lh > 1 {
			chunks := decomp.Partition(lw, decomp.ChunkWidthFor(lw, p.workers), p.workers)
			nc := len(chunks)
			p.run(obs.StageIDWTVert, int32(l), nc*len(planes), func(i int) {
				pl, ch := planes[i/nc], chunks[i%nc]
				aux := getI32(dwt.AuxLen(ch.W, lh))
				dwt.InvVertical53Stripe(pl.Data, ch.X0, ch.W, lh, pl.Stride, *aux)
				putI32(aux)
				rec.Add(obs.CtrDWTBytesMoved, int64(ch.W)*int64(lh)*8)
			})
		}
	}
}

// IDWT97 is the irreversible analogue of IDWT53; bit-identical to
// dwt.InverseLevels97 on each plane.
func (p *Pipeline) IDWT97(fplanes []*imgmodel.FPlane, levels, stop int) {
	w, h := fplanes[0].W, fplanes[0].H
	rec := p.rec
	for l := levels - 1; l >= stop; l-- {
		lw, lh := dwt.LevelDims(w, h, l)
		if lw <= 1 && lh <= 1 {
			continue
		}
		if lw > 1 {
			ns := stripes(lh)
			p.run(obs.StageIDWTHorz, int32(l), ns*len(fplanes), func(i int) {
				pl := fplanes[i/ns]
				y0, y1 := stripeBounds(i%ns, lh)
				tmp := getF32(lw)
				dwt.InvHorizontal97Rows(pl.Data, lw, pl.Stride, y0, y1, *tmp)
				putF32(tmp)
				rec.Add(obs.CtrDWTBytesMoved, int64(y1-y0)*int64(lw)*8)
			})
		}
		if lh > 1 {
			chunks := decomp.Partition(lw, decomp.ChunkWidthFor(lw, p.workers), p.workers)
			nc := len(chunks)
			p.run(obs.StageIDWTVert, int32(l), nc*len(fplanes), func(i int) {
				pl, ch := fplanes[i/nc], chunks[i%nc]
				aux := getF32(dwt.AuxLen(ch.W, lh))
				dwt.InvVertical97Stripe(pl.Data, ch.X0, ch.W, lh, pl.Stride, *aux)
				putF32(aux)
				rec.Add(obs.CtrDWTBytesMoved, int64(ch.W)*int64(lh)*8)
			})
		}
	}
}

// InverseMCTInt finishes the reversible path stripe-parallel: copy the
// synthesized planes into the image, apply the inverse RCT (or the
// plain unshift), and clamp — one fused pass per row stripe, the
// inverse of MCTInt.
func (p *Pipeline) InverseMCTInt(img *imgmodel.Image, planes []*imgmodel.Plane, h *codestream.Header) {
	w, hh := img.W, img.H
	useMCT := h.UseMCT && h.NComp == 3
	p.run(obs.StageIMCT, 0, stripes(hh), func(s int) {
		y0, y1 := stripeBounds(s, hh)
		for c, pl := range planes {
			dst := img.Comps[c]
			copy(dst.Data[y0*dst.Stride:y1*dst.Stride], pl.Data[y0*pl.Stride:y1*pl.Stride])
		}
		if useMCT {
			mct.InverseRCTRows(img.Comps[0].Data, img.Comps[1].Data, img.Comps[2].Data,
				w, img.Comps[0].Stride, y0, y1, h.Depth)
		} else {
			for c := range img.Comps {
				mct.UnshiftRows(img.Comps[c].Data, w, img.Comps[c].Stride, y0, y1, h.Depth)
			}
		}
		for c := range img.Comps {
			mct.ClampRows(img.Comps[c].Data, w, img.Comps[c].Stride, y0, y1, h.Depth)
		}
	})
}

// InverseMCTFloat finishes the irreversible path stripe-parallel:
// inverse ICT (or round-unshift) straight from the synthesized float
// planes into the image, then clamp — the inverse of MCTFloat.
func (p *Pipeline) InverseMCTFloat(img *imgmodel.Image, fplanes []*imgmodel.FPlane, h *codestream.Header) {
	w, hh := img.W, img.H
	useMCT := h.UseMCT && h.NComp == 3
	p.run(obs.StageIMCT, 0, stripes(hh), func(s int) {
		y0, y1 := stripeBounds(s, hh)
		if useMCT {
			mct.InverseICTRows(fplanes[0].Data, fplanes[1].Data, fplanes[2].Data,
				img.Comps[0].Data, img.Comps[1].Data, img.Comps[2].Data,
				w, fplanes[0].Stride, img.Comps[0].Stride, y0, y1, h.Depth)
		} else {
			for c := range img.Comps {
				mct.RoundShiftRows(fplanes[c].Data, img.Comps[c].Data,
					w, fplanes[c].Stride, img.Comps[c].Stride, y0, y1, h.Depth)
			}
		}
		for c := range img.Comps {
			mct.ClampRows(img.Comps[c].Data, w, img.Comps[c].Stride, y0, y1, h.Depth)
		}
	})
}

// blockCostFloor is the per-block fixed cost (coder-state init, scan
// setup) added to the scaled byte count when sizing Tier-1 decode
// partitions, in common time units calibrated against the MQ coder
// (one unit ≈ decoding one MQ-coded byte).
const blockCostFloor = 48

// t1CostModel prices one block decode for partition sizing. Different
// block coders have different fixed setup costs and per-byte decode
// rates, so the partitioner is parameterized rather than hardwired to
// MQ: cost = floor + codedBytes/byteDiv, both in the common units of
// blockCostFloor.
type t1CostModel struct {
	floor   int // fixed per-block cost (state init, scan setup)
	byteDiv int // coded bytes decoded per cost unit
}

var (
	// mqDecodeCost: serial arithmetic decoding, ~1 unit per byte.
	mqDecodeCost = t1CostModel{floor: blockCostFloor, byteDiv: 1}
	// htDecodeCost: the HT decoder moves bytes several times faster
	// than MQ (measured ~10× on dense blocks; 4 is the conservative
	// sparse-block figure) and its per-block setup is lighter — no MQ
	// context state to initialize.
	htDecodeCost = t1CostModel{floor: 16, byteDiv: 4}
)

// decodeCostFor selects the partition cost model for a Tier-1 mode.
func decodeCostFor(mode t1.Mode) t1CostModel {
	if mode.IsHT() {
		return htDecodeCost
	}
	return mqDecodeCost
}

func (m t1CostModel) of(t *blockTask) int { return m.floor + len(t.acc.data)/m.byteDiv }

// partitionDecodeTasks groups the block-decode tasks into contiguous
// work-queue jobs sized by modeled cost — the per-block coded byte
// counts T2 parsing just produced, priced by the active coder's cost
// model — instead of one fixed-size job per block. Cheap blocks
// (sparse high-frequency bands, heavily truncated layers) coalesce
// until a partition reaches the cost target (total/(workers*4), so
// claims stay frequent enough to balance); a block whose own cost
// exceeds the target becomes a singleton. The pass chain inside one
// block is strictly serial for both coders, so a single block is the
// finest split available — pass granularity is the floor. Because HT
// blocks are priced cheaper per byte, the same byte counts coalesce
// into fewer, larger partitions under the HT model, keeping per-job
// queue overhead proportional to actual decode time. Partition
// boundaries never change decoded pixels (blocks write disjoint plane
// regions); they only shape the queue's load balance.
func partitionDecodeTasks(rec *obs.Recorder, tasks []blockTask, workers int, model t1CostModel) []decodePart {
	if len(tasks) == 0 {
		return nil
	}
	cost := func(t *blockTask) int { return model.of(t) }
	total := 0
	for i := range tasks {
		total += cost(&tasks[i])
	}
	target := total / (workers * 4)
	// One shared absolute minimum in common units — NOT scaled by the
	// model floor — so a cheap coder coalesces more blocks per job
	// rather than just lowering the bar.
	if target < 4*blockCostFloor {
		target = 4 * blockCostFloor
	}
	var parts []decodePart
	lo, acc := 0, 0
	for i := range tasks {
		c := cost(&tasks[i])
		if acc > 0 && acc+c > target {
			parts = append(parts, decodePart{lo: lo, hi: i})
			lo, acc = i, 0
		}
		acc += c
	}
	parts = append(parts, decodePart{lo: lo, hi: len(tasks)})
	if rec != nil {
		singles := int64(0)
		for _, pt := range parts {
			if pt.hi-pt.lo == 1 && cost(&tasks[pt.lo]) >= target {
				singles++
			}
		}
		rec.Add(obs.CtrDecodeParts, int64(len(parts)))
		rec.Add(obs.CtrDecodeSingles, singles)
	}
	return parts
}

// decodePart is one dynamically-sized Tier-1 decode job: the tasks in
// [lo, hi).
type decodePart struct{ lo, hi int }
