// Package baseline models the two systems the paper compares against:
// JasPer running on an Intel Pentium IV 3.2 GHz (Figure 9) and the
// Muta et al. Motion-JPEG2000 encoder for the Cell/B.E. (Figures 6–8).
//
// Neither comparator can be run directly (one is a dead desktop CPU,
// the other closed source), so both are calibrated analytic models
// driven by the real workload counters of this repository's codec: the
// actual Tier-1 scan/decision counts, actual pass counts, and the exact
// DWT geometry. The Pentium model prices the same sequential pipeline
// with out-of-order-core constants; the Muta model prices their
// published design choices (convolution DWT on overlapping 128×128
// tiles, 32×32 code blocks, Tier-1 on SPEs only, Tier-2 on the PPE).
package baseline

import (
	"context"
	"j2kcell/internal/cell"
	"j2kcell/internal/codec"
	"j2kcell/internal/imgmodel"
)

// PentiumClockHz matches the paper's comparison machine.
const PentiumClockHz = 3.2e9

// PentiumCosts prices kernels on the Pentium IV (3.2 GHz, 2 MB L2):
// scalar code (the paper notes JasPer has no SSE vectorization), but an
// out-of-order core with a good branch predictor, so Tier-1 runs faster
// than on either Cell core while the DWT loops, lacking SIMD, sit
// between the PPE and one SPE. The lossy path keeps JasPer's
// fixed-point representation, exactly the configuration Figure 9
// benchmarks ("the Pentium IV processor emulates the floating point
// operations with fixed point instructions").
var PentiumCosts = cell.KernelCosts{
	ReadConv: 2.0,
	ShiftMCT: 4.0,
	DWT53:    12.0,
	DWT97:    13.0,
	DWT97Fix: 19.0,
	DWTConv:  30.0,
	Quant:    5.0,
	T1Scan:   1.2,
	T1Visit:  11.0,
	T2Byte:   5.0,
	RCPass:   3500.0,
	IOByte:   0.6,
}

// StageSeconds is a per-stage time breakdown in seconds.
type StageSeconds struct {
	Read    float64
	Shift   float64
	DWT     float64
	Quant   float64
	Tier1   float64
	RateCtl float64
	Tier2IO float64
}

// Total sums the stages.
func (s StageSeconds) Total() float64 {
	return s.Read + s.Shift + s.DWT + s.Quant + s.Tier1 + s.RateCtl + s.Tier2IO
}

// DWTSamplePasses counts sample×direction work over all decomposition
// levels of a w×h plane set.
func DWTSamplePasses(w, h, ncomp, levels int) int {
	total := 0
	lw, lh := w, h
	for l := 0; l < levels; l++ {
		if lw <= 1 && lh <= 1 {
			break
		}
		total += lw * lh * 2
		lw, lh = (lw+1)/2, (lh+1)/2
	}
	return total * ncomp
}

// PricePipeline prices the sequential JasPer pipeline on a machine with
// the given kernel costs, driven by a completed encode's statistics.
func PricePipeline(res *codec.Result, opt codec.Options, costs cell.KernelCosts, clockHz float64) StageSeconds {
	st := res.Stats
	opt = opt.WithDefaults(st.W, st.H)
	samples := st.Samples
	dwtWork := DWTSamplePasses(st.W, st.H, st.NComp, opt.Levels)

	var out StageSeconds
	sec := func(cycles float64) float64 { return cycles / clockHz }
	out.Read = sec(float64(costs.IOByte*float64(samples)) + float64(costs.ReadConv*float64(samples)))
	out.Shift = sec(costs.ShiftMCT * float64(samples))
	if opt.Lossless {
		out.DWT = sec(costs.DWT53 * float64(dwtWork))
	} else {
		out.DWT = sec(costs.DWT97Fix * float64(dwtWork)) // JasPer fixed-point path
		out.Quant = sec(costs.Quant * float64(samples))
		if opt.Rate > 0 {
			out.RateCtl = sec(costs.RCPass * float64(st.TotalPasses))
		}
	}
	out.Tier1 = sec(float64(costs.T1Scan*float64(st.T1Scanned)) + float64(costs.T1Visit*float64(st.T1Coded)))
	out.Tier2IO = sec(float64(costs.T2Byte*float64(st.BodyBytes)) + float64(costs.IOByte*float64(st.HeaderBytes+st.BodyBytes)))
	return out
}

// EncodePentium runs the real codec for the data and prices it on the
// Pentium IV model.
func EncodePentium(img *imgmodel.Image, opt codec.Options) (*codec.Result, StageSeconds, error) {
	res, err := codec.Encode(context.Background(), img, opt, 1)
	if err != nil {
		return nil, StageSeconds{}, err
	}
	return res, PricePipeline(res, opt, PentiumCosts, PentiumClockHz), nil
}
