package codec

import (
	"j2kcell/internal/codestream"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/mct"
	"j2kcell/internal/obs"
	"j2kcell/internal/quant"
)

// Decode-side pipeline stages. The inverse chain mirrors the encoder's
// stage decomposition through the same atomic work queue:
//
//	Tier-1 block decode        — one job per task, as the encoder runs
//	                             one per block; each task writes its
//	                             rectangle's final coefficients once: a
//	                             decoded block (dequantized from per-job
//	                             scratch on the irreversible path) or a
//	                             zero-filled hole, so no zeroing or
//	                             dequantization pass runs over the planes
//	multi-level inverse DWT    — horizontal: row stripes; vertical:
//	                             cache-line column groups; barrier per
//	                             phase and per level, levels walked
//	                             finest-last (inverseDWT, the reverse
//	                             of forwardDWT)
//	inverse MCT + clamp        — row stripes, fused with the plane→image
//	                             copy on the reversible path
//
// Every split is elementwise-independent, so the reconstructed pixels
// are bit-identical to the sequential decoder for every worker count,
// build, and tiling — the decode half of the DESIGN.md §5 invariant.

// ZeroPlanes clears pooled coefficient planes stripe-parallel, the
// full padded stride included. Decode never calls it — its Tier-1
// tasks zero-fill the holes themselves — but callers that compose the
// decode layer by layer (Tier-1 writing only the blocks with data) use
// it to time plane clearing on its own.
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

// Dequantize converts whole planes of quantizer indices back to
// coefficients, one job per (component, band), into pooled float
// planes. The subbands tile the plane, so every live sample of the
// pooled planes is written; the stride padding is never read by the
// inverse transforms. Decode fuses dequantization into its Tier-1 jobs
// instead (quant.DequantizeBlock, bit-identical); this per-layer call
// serves callers that time dequantization apart from Tier-1, as
// QuantizePlanes does on the encode side.
func (p *Pipeline) Dequantize(h *codestream.Header, bands []dwt.Band, planes []*imgmodel.Plane) []*imgmodel.FPlane {
	w, hh := planes[0].W, planes[0].H
	fplanes := make([]*imgmodel.FPlane, len(planes))
	for c := range fplanes {
		fplanes[c] = imgmodel.Get[float32](w, hh)
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
// over all planes (inverseDWT with the 5/3 kernels).
func (p *Pipeline) IDWT53(planes []*imgmodel.Plane, levels, stop int) {
	inverseDWT(p, dwt.Lifting53, planes, levels, stop)
}

// IDWT97 is the irreversible analogue of IDWT53.
func (p *Pipeline) IDWT97(fplanes []*imgmodel.FPlane, levels, stop int) {
	inverseDWT(p, dwt.Lifting97, fplanes, levels, stop)
}

// InverseMCTInt finishes the reversible path stripe-parallel: copy the
// synthesized planes' top-left img.W × img.H corner into the image,
// apply the inverse RCT (or the plain unshift), and clamp — one fused
// pass per row stripe, the inverse of MCTInt. The planes may be views
// at a window's origin and img a view of the window's place in a
// larger output; the planes' components share one stride, as do
// img's.
func (p *Pipeline) InverseMCTInt(img *imgmodel.Image, planes []*imgmodel.Plane, h *codestream.Header) {
	w, hh := img.W, img.H
	useMCT := h.UseMCT && h.NComp == 3
	p.run(obs.StageIMCT, 0, stripes(hh), func(s int) {
		y0, y1 := stripeBounds(s, hh)
		for c, pl := range planes {
			for y := y0; y < y1; y++ {
				copy(img.Comps[c].Row(y), pl.Data[y*pl.Stride:][:w])
			}
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
// inverse ICT (or round-unshift) straight from the top-left img.W ×
// img.H corner of the synthesized float planes into the image, then
// clamp — the inverse of MCTFloat. Views are accepted on both sides,
// as in InverseMCTInt.
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
