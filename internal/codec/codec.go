// Package codec assembles the full JPEG2000 encoder and decoder
// pipelines from the stage packages (mct, dwt, quant, t1, rate, t2,
// codestream). This sequential implementation is the correctness
// oracle: the Cell-parallel encoder (internal/core) must produce
// byte-identical codestreams, and the decoder here verifies both.
package codec

import (
	"fmt"

	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/quant"
	"j2kcell/internal/t1"
)

// Options selects the coding path and its parameters.
type Options struct {
	// Lossless selects the reversible path (RCT + 5/3, no
	// quantization, no rate control) — JasPer's default mode in the
	// paper. Otherwise the irreversible path (ICT + 9/7 + deadzone
	// quantization) runs, optionally rate-controlled.
	Lossless bool
	// Levels is the number of DWT decompositions (default 5).
	Levels int
	// CBW, CBH are the code block dimensions (default 64×64, the
	// standard maximum; the Muta baseline uses 32×32).
	CBW, CBH int
	// Rate, for the lossy path, is the target compressed size as a
	// fraction of the raw image bytes (the paper encodes at 0.1).
	// Zero disables rate control.
	Rate float64
	// LayerRates, for the lossy path, requests multiple quality layers
	// at the given cumulative rate fractions (strictly increasing,
	// e.g. [0.02, 0.1, 0.5]); decoding a prefix of layers reconstructs
	// the image at the corresponding rate. When set it supersedes Rate
	// (the last entry is the total rate; 0 keeps everything in the
	// final layer).
	LayerRates []float64
	// BaseDelta is the image-domain quantizer step Δ0 (default 0.5).
	BaseDelta float64
	// Progression selects the packet ordering.
	Progression Progression
	// TileW, TileH split the image into independently coded tiles
	// (0 = the full extent on that axis; both 0 is one tile covering
	// the image, the paper's configuration).
	// Tiling bounds encoder memory and adds a coarse parallel axis at
	// the cost of boundary artifacts at low rates.
	TileW, TileH int
	// Resilience enables the Part-1 error-resilience coding tools:
	// every packet is prefixed with an SOP resync marker (T.800 Scod
	// bit 1), and on the MQ path every coding pass is independently
	// terminated (TERMALL) and every cleanup pass closes with the 1010
	// segmentation symbol — so damage inside Tier-1 data is detected by
	// the decoder instead of decoding to silent garbage, and a
	// best-effort decode (DecodeResilient) can contain it to the
	// affected code block. The HT path already carries per-segment
	// trailers checked for consistency. Costs a few bytes per pass and
	// six per packet.
	Resilience bool
	// HT selects the high-throughput (Part 15 style) block coder for
	// Tier-1 instead of the MQ arithmetic coder. Lossless output stays
	// bit-exact; the constrained-lossy path gets three truncation
	// points per block (cleanup + two raw refinement passes) at a
	// small rate cost versus MQ. The choice is recorded in the
	// codestream capability bits, so decoding is automatic.
	HT bool
}

// Progression is a packet ordering (T.800 progression order).
type Progression int

// Supported progression orders.
const (
	// LRCP iterates layer, resolution, component — quality progressive.
	LRCP Progression = iota
	// RLCP iterates resolution, layer, component — resolution
	// progressive: all data for a resolution arrives before any finer
	// one, so thumbnail decoding needs only a stream prefix.
	RLCP
)

// WithDefaults fills zero fields and clamps levels to the image size.
func (o Options) WithDefaults(w, h int) Options {
	if o.Levels == 0 {
		o.Levels = 5
	}
	if ml := dwt.MaxLevels(w, h); o.Levels > ml {
		o.Levels = ml
	}
	if o.CBW == 0 {
		o.CBW = 64
	}
	if o.CBH == 0 {
		o.CBH = 64
	}
	if o.BaseDelta == 0 {
		o.BaseDelta = quant.DefaultBaseDelta
	}
	return o
}

// Mode returns the Tier-1 termination style for these options:
// per-pass termination exactly when rate control will truncate, layer
// boundaries must be independently decodable, or the resilience tools
// need every pass to be a damage-containment boundary (in which case
// MQ blocks also code segmentation symbols).
func (o Options) Mode() t1.Mode {
	if o.HT {
		if !o.Lossless && (o.Rate > 0 || len(o.LayerRates) > 0) {
			return t1.ModeHTRefine
		}
		return t1.ModeHT
	}
	if o.Resilience {
		return t1.ModeTermAll.WithSegSym()
	}
	if !o.Lossless && (o.Rate > 0 || len(o.LayerRates) > 0) {
		return t1.ModeTermAll
	}
	return t1.ModeSingle
}

// NumLayers returns the number of quality layers these options emit.
func (o Options) NumLayers() int {
	if !o.Lossless && len(o.LayerRates) > 0 {
		return len(o.LayerRates)
	}
	return 1
}

// Filter returns the wavelet used by these options.
func (o Options) Filter() dwt.Filter {
	if o.Lossless {
		return dwt.W53
	}
	return dwt.W97
}

// BlockJob identifies one code block to be Tier-1 coded: its component,
// subband, grid position within the band, and absolute plane region.
type BlockJob struct {
	Comp    int
	BandIdx int
	Band    dwt.Band
	GX, GY  int // block grid coordinates within the band
	X0, Y0  int // absolute plane coordinates
	W, H    int
	Gain    float64
}

// PlanBlocks enumerates the subbands and code block jobs for a w×h
// image under opt, in the canonical order (component, band, raster).
// Every encoder variant in this repository plans with this function, so
// they all code exactly the same block set.
func PlanBlocks(w, h, ncomp int, opt Options) ([]dwt.Band, []BlockJob) {
	bands := dwt.Layout(w, h, opt.Levels)
	n := 0
	for _, b := range bands {
		n += ceilDiv(b.W, opt.CBW) * ceilDiv(b.H, opt.CBH)
	}
	jobs := make([]BlockJob, 0, n*ncomp)
	for c := 0; c < ncomp; c++ {
		for bi, b := range bands {
			if b.W == 0 || b.H == 0 {
				continue
			}
			gain := 1.0 // lossy: Δ_b = Δ0/g_b makes q-domain errors uniform
			if opt.Lossless {
				gain = dwt.BandGain(dwt.W53, opt.Levels, b.Orient, b.Level)
			}
			for gy := 0; gy*opt.CBH < b.H; gy++ {
				for gx := 0; gx*opt.CBW < b.W; gx++ {
					bw := opt.CBW
					if (gx+1)*opt.CBW > b.W {
						bw = b.W - gx*opt.CBW
					}
					bh := opt.CBH
					if (gy+1)*opt.CBH > b.H {
						bh = b.H - gy*opt.CBH
					}
					jobs = append(jobs, BlockJob{
						Comp: c, BandIdx: bi, Band: b, GX: gx, GY: gy,
						X0: b.X0 + gx*opt.CBW, Y0: b.Y0 + gy*opt.CBH,
						W: bw, H: bh, Gain: gain,
					})
				}
			}
		}
	}
	return bands, jobs
}

// ceilDiv returns ⌈a/b⌉ for a >= 0, b > 0.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ResBands returns the band indices belonging to resolution r
// (0 = LL only; r >= 1 = the three detail bands of level levels-r+1),
// matching the dwt.Layout ordering.
func ResBands(levels, r int) []int {
	if r == 0 {
		return []int{0}
	}
	base := 1 + 3*(r-1)
	return []int{base, base + 1, base + 2}
}

// PacketOrder returns the (layer, resolution, component) triples in
// transmission order for a progression. Encoder and decoder iterate
// this exact sequence, which is what keeps the tag-tree and Lblock
// state synchronized.
func PacketOrder(prog Progression, layers, levels, ncomp int) [][3]int {
	var order [][3]int
	switch prog {
	case RLCP:
		for r := 0; r <= levels; r++ {
			for l := 0; l < layers; l++ {
				for c := 0; c < ncomp; c++ {
					order = append(order, [3]int{l, r, c})
				}
			}
		}
	default: // LRCP
		for l := 0; l < layers; l++ {
			for r := 0; r <= levels; r++ {
				for c := 0; c < ncomp; c++ {
					order = append(order, [3]int{l, r, c})
				}
			}
		}
	}
	return order
}

// Stats summarizes an encode for tests and the performance models.
type Stats struct {
	W, H, NComp int
	Samples     int   // W*H*NComp
	Blocks      int   // non-empty code blocks
	T1Scanned   int64 // coefficient visits across all coded passes
	T1Coded     int64 // MQ decisions across all coded passes
	TotalPasses int
	KeptPasses  int
	HeaderBytes int
	BodyBytes   int
}

// Result is a completed encode.
type Result struct {
	Data  []byte
	Stats Stats
	// Internals exposed for the performance harness and the parallel
	// encoders' verification paths.
	Jobs      []BlockJob
	Blocks    []*t1.Block
	Keep      []int   // final-layer cumulative pass selection
	LayerKeep [][]int // per-layer cumulative pass selections
}

// validateImage is the input check every encode runs before any work.
func validateImage(img *imgmodel.Image) error {
	if img == nil || img.W <= 0 || img.H <= 0 || len(img.Comps) == 0 {
		return fmt.Errorf("codec: empty image")
	}
	if img.Depth < 1 || img.Depth > 16 {
		return fmt.Errorf("codec: unsupported depth %d", img.Depth)
	}
	for _, p := range img.Comps {
		if p.W != img.W || p.H != img.H {
			return fmt.Errorf("codec: component geometry mismatch (subsampling unsupported)")
		}
	}
	return nil
}
