package baseline

import (
	"context"
	"j2kcell/internal/cell"
	"j2kcell/internal/codec"
	"j2kcell/internal/imgmodel"
)

// MutaClockHz is the 2.4 GHz Cell/B.E. revision Muta et al. measured on
// (the paper's Section 5.2 lists this among the comparison caveats).
const MutaClockHz = 2.4e9

// Design constants of the Muta et al. encoder, from the paper's
// description: convolution-based DWT over 128×128 tiles whose 16-pixel
// overlap leaves a net 112×112, violating the cache-line alignment of
// the most efficient DMA; 32×32 code blocks (halving Local Store
// pressure but quadrupling PPE↔SPE interactions); Tier-1 on SPE threads
// only while the PPE runs Tier-2 overlapped; lossless only.
const (
	mutaTile    = 128
	mutaNetTile = 112
	// mutaBlockOverhead is the per-code-block cost of the PPE
	// distributing work and the SPE synchronizing on it — the
	// interaction the paper blames for their lower scalability.
	mutaBlockOverheadCycles = 15000.0
	// mutaT1Factor scales their Tier-1 kernel relative to ours,
	// calibrated so the modeled bars match the relative heights the
	// paper reports in Figures 6-7 (their kernel predates the
	// stripe-skipping optimizations and pays 32x32 context restarts).
	mutaT1Factor = 2.0
)

// MutaResult is the modeled per-frame profile of the Muta encoder.
type MutaResult struct {
	DWT    float64 // seconds
	EBCOT  float64 // Tier-1 + Tier-2, overlapped
	Other  float64 // PPE-side shift/MCT/IO (not offloaded in their design)
	DMAGB  float64 // DWT DMA traffic in GB (for the ablation tables)
	Blocks int
}

// Total is the per-frame encode time in seconds.
func (m MutaResult) Total() float64 { return m.DWT + m.EBCOT + m.Other }

// MutaModel prices the Muta design for one frame on nSPE SPEs at the
// given clock. The Tier-1 workload counters come from a real encode of
// the frame with the design's 32×32 code blocks, so content-dependent
// load is honest; the structural handicaps are modeled:
//
//   - the tile overlap multiplies DWT compute and traffic by
//     (128/112)² ≈ 1.31, and the overlapped region's misalignment costs
//     an extra cache line per tile row (~25% more traffic);
//   - the convolution kernel costs DWTConv per sample-direction instead
//     of the lifting cost;
//   - their DWT "does not scale beyond a single SPE": modeled as one
//     SPE doing the filtering while others idle (the published curves
//     show essentially flat DWT time beyond one SPE);
//   - Tier-1 runs on SPEs only, with a per-block PPE interaction cost;
//     Tier-2 runs on the PPE overlapped with Tier-1.
func MutaModel(res *codec.Result, opt codec.Options, nSPE int, clockHz float64) MutaResult {
	st := res.Stats
	opt = opt.WithDefaults(st.W, st.H)
	sec := func(cycles float64) float64 { return cycles / clockHz }

	overlap := float64(mutaTile*mutaTile) / float64(mutaNetTile*mutaNetTile)
	misalign := 1.25
	dwtWork := float64(DWTSamplePasses(st.W, st.H, st.NComp, opt.Levels))
	dwtCompute := cell.SPECosts.DWTConv * dwtWork * overlap
	dwtBytes := float64(dwtWork*4) * 2 * overlap * misalign // read+write per pass
	dwtBandwidthCycles := dwtBytes / cell.BytesPerCyc
	// Single effective SPE for the DWT; bandwidth is not the limiter at
	// one SPE, so compute dominates.
	dwt := dwtCompute
	if dwtBandwidthCycles > dwt {
		dwt = dwtBandwidthCycles
	}

	t1Cycles := mutaT1Factor * (float64(cell.SPECosts.T1Scan*float64(st.T1Scanned)) + float64(cell.SPECosts.T1Visit*float64(st.T1Coded)))
	t1Cycles += float64(mutaBlockOverheadCycles * float64(st.Blocks))
	if nSPE < 1 {
		nSPE = 1
	}
	t1 := t1Cycles / float64(nSPE)
	t2 := cell.PPECosts.T2Byte * float64(st.BodyBytes) // PPE, overlapped
	ebcot := t1
	if t2 > ebcot {
		ebcot = t2
	}

	other := float64(cell.PPECosts.ShiftMCT*float64(st.Samples)) +
		float64(cell.PPECosts.ReadConv*float64(st.Samples)) +
		float64(cell.PPECosts.IOByte*float64(st.Samples+st.BodyBytes+st.HeaderBytes))

	return MutaResult{
		DWT:    sec(dwt),
		EBCOT:  sec(ebcot),
		Other:  sec(other),
		DMAGB:  dwtBytes / 1e9,
		Blocks: st.Blocks,
	}
}

// EncodeMuta encodes the frame with the Muta design parameters (32×32
// blocks, lossless) and prices it for the given SPE count and clock.
func EncodeMuta(img *imgmodel.Image, nSPE int, clockHz float64) (*codec.Result, MutaResult, error) {
	opt := codec.Options{Lossless: true, CBW: 32, CBH: 32}
	res, err := codec.Encode(context.Background(), img, opt, 1)
	if err != nil {
		return nil, MutaResult{}, err
	}
	return res, MutaModel(res, opt, nSPE, clockHz), nil
}
