package codec

import (
	"context"

	"j2kcell/internal/codestream"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/obs"
	"j2kcell/internal/rate"
	"j2kcell/internal/t1"
	"j2kcell/internal/t2"
)

// ForwardTransform runs level shift + component transform + DWT
// (+ quantization on the lossy path) and returns the integer
// coefficient planes ready for Tier-1. It is the single-worker
// composition of the pipeline stages (pipeline.go), so it computes
// exactly what the stripe-parallel path computes; the test oracles for
// the parallel encoders compare against it. The returned planes come
// from the imgmodel plane pool; callers that are done with them may
// release them with imgmodel.PutPlane.
func ForwardTransform(img *imgmodel.Image, opt Options) []*imgmodel.Plane {
	planes, _ := ForwardTransformPipeline(NewPipeline(1), img, opt)
	return planes
}

// ForwardTransformPipeline is ForwardTransform on a caller-supplied
// pipeline, so a tiled encode can run each tile's transform under the
// outer pipeline's context and fault latch. On fault or cancellation
// it returns the pipeline's error with every pooled plane already
// released.
func ForwardTransformPipeline(p *Pipeline, img *imgmodel.Image, opt Options) ([]*imgmodel.Plane, error) {
	if opt.Lossless {
		planes := p.MCTInt(img, opt)
		p.DWT53(planes, opt)
		if err := p.Err(); err != nil {
			for _, pl := range planes {
				imgmodel.PutPlane(pl)
			}
			return nil, err
		}
		return planes, nil
	}
	fplanes := p.MCTFloat(img, opt)
	p.DWT97(fplanes, opt)
	planes := p.QuantizePlanes(fplanes, opt)
	for _, fp := range fplanes {
		imgmodel.PutFPlane(fp)
	}
	if err := p.Err(); err != nil {
		for _, pl := range planes {
			imgmodel.PutPlane(pl)
		}
		return nil, err
	}
	return planes, nil
}

// Encode compresses img into a complete JPEG2000 codestream. It is the
// one-worker instance of the stage pipeline, so EncodeParallel is
// byte-identical to it by construction.
func Encode(img *imgmodel.Image, opt Options) (*Result, error) {
	return EncodeParallel(img, opt, 1)
}

// EncodeContext is Encode bound to a context: cancellation stops the
// encode between work-queue jobs and returns ctx.Err() unwrapped.
func EncodeContext(ctx context.Context, img *imgmodel.Image, opt Options) (*Result, error) {
	return EncodeParallelContext(ctx, img, opt, 1)
}

// Finish performs everything downstream of Tier-1 — PCRD rate
// allocation, Tier-2 packet assembly, and codestream framing — given
// the coded blocks. The sequential encoder and the Cell-parallel
// encoder both call this, which is what makes their outputs
// byte-identical by construction.
func Finish(img *imgmodel.Image, opt Options, jobs []BlockJob, blocks []*t1.Block) *Result {
	return FinishRD(img, opt, jobs, blocks, nil)
}

// FinishRD is Finish with a pre-built R-D ladder set for the parallel
// encoders (rd[i] for blocks[i]; nil means build it here) whose hulls
// may already have been computed inside the Tier-1 block jobs. The
// result is byte-identical to Finish either way — hulls and selections
// are deterministic functions of the ladders.
func FinishRD(img *imgmodel.Image, opt Options, jobs []BlockJob, blocks []*t1.Block, rd []rate.BlockRD) *Result {
	return finishRD(obs.Active(), img, opt, jobs, blocks, rd)
}

// finishRD is FinishRD recording against an explicit recorder: the
// pipelined entry points pass the operation recorder they resolved
// from the context, the public wrappers the ambient one.
func finishRD(rec *obs.Recorder, img *imgmodel.Image, opt Options, jobs []BlockJob, blocks []*t1.Block, rd []rate.BlockRD) *Result {
	opt = opt.WithDefaults(img.W, img.H)
	w, h := img.W, img.H
	ncomp := len(img.Comps)
	mode := opt.Mode()

	// The finish stages — PCRD rate control, Tier-2 assembly, framing —
	// run on this coordinator lane; in the Amdahl report they are the
	// sequential tail the paper measures in Table 2.
	ln := rec.Acquire()
	defer ln.Release()

	build := func(keeps [][]int) ([]byte, []byte) {
		sp := ln.Begin(obs.StageT2, 0, 0)
		body, mb := AssemblePackets(w, h, ncomp, opt, jobs, blocks, keeps, nil)
		sp.End()
		head := &codestream.Header{
			W: w, H: h, NComp: ncomp, Depth: img.Depth,
			Levels: opt.Levels, CBW: opt.CBW, CBH: opt.CBH,
			Layers: len(keeps), Progression: int(opt.Progression),
			SOPMarkers: opt.Resilience,
			Lossless:   opt.Lossless, UseMCT: ncomp == 3,
			TermAll: mode.Base() == t1.ModeTermAll, SegSym: mode.SegSym(),
			HT: opt.HT, BaseDelta: opt.BaseDelta, Mb: mb,
		}
		sp = ln.Begin(obs.StageFrame, 0, 0)
		data := codestream.Encode(head, body)
		sp.End()
		return data, body
	}

	rates := opt.layerRates()
	keeps := [][]int{FullKeep(blocks)}
	constrained := !opt.Lossless && rates != nil
	if constrained {
		if rd == nil {
			sp := ln.Begin(obs.StageHull, 0, 0)
			rd = BuildLadders(blocks)
			sp.End()
		}
		// The ladders (and their cached hulls) persist across the
		// overhead-retry loop, so hulls are computed at most once per
		// block per encode.
		sp := ln.Begin(obs.StageRate, 0, 0)
		keeps = allocateLayersRD(rec, rd, img, opt, rates, 0)
		sp.End()
	}
	data, body := build(keeps)
	if constrained {
		// Header sizes are only known after assembly; if the initial
		// overhead estimate was short, shave the body budget and retry.
		target := int(rates[len(rates)-1] * float64(w*h*ncomp*img.Depth/8))
		retry := int32(1)
		for extra := 16; len(data) > target && extra < target; extra *= 2 {
			sp := ln.Begin(obs.StageRate, 0, retry)
			keeps = allocateLayersRD(rec, rd, img, opt, rates, len(data)-target+extra)
			sp.End()
			retry++
			data, body = build(keeps)
		}
	}

	keep := keeps[len(keeps)-1]
	res := &Result{Data: data, Jobs: jobs, Blocks: blocks, Keep: keep, LayerKeep: keeps}
	res.Stats = buildStats(img, jobs, blocks, keep, len(data)-len(body), len(body))
	return res
}

// layerRates returns the cumulative per-layer rate targets, or nil when
// nothing constrains the stream.
func (o Options) layerRates() []float64 {
	if o.Lossless {
		return nil
	}
	if len(o.LayerRates) > 0 {
		return o.LayerRates
	}
	if o.Rate > 0 {
		return []float64{o.Rate}
	}
	return nil
}

// FullKeep keeps every pass of every block (lossless / no rate target).
func FullKeep(blocks []*t1.Block) []int {
	keep := make([]int, len(blocks))
	for i, b := range blocks {
		keep[i] = len(b.Passes)
	}
	return keep
}

// AllocatePasses runs PCRD-opt against the byte budget implied by
// opt.Rate, reserving an estimate for headers plus any extra deficit a
// previous assembly round measured.
func AllocatePasses(blocks []*t1.Block, jobs []BlockJob, img *imgmodel.Image, opt Options, extraOverhead int) []int {
	keeps := AllocateLayers(blocks, jobs, img, opt, []float64{opt.Rate}, extraOverhead)
	return keeps[0]
}

// LadderOf builds the rate-distortion ladder of one coded block:
// cumulative segment bytes and cumulative distortion reduction after
// each pass. The hull is left uncomputed; call ComputeHull (cheap,
// block-local) to fill it — the parallel pipelines do so inside the
// Tier-1 block job itself, moving the hull sweep off the sequential
// rate-control tail.
func LadderOf(b *t1.Block) rate.BlockRD {
	var rd rate.BlockRD
	if n := len(b.Passes); n > 0 {
		rd.Rates = make([]int, 0, n)
		rd.Dists = make([]float64, 0, n)
	}
	dist := 0.0
	for _, p := range b.Passes {
		dist += p.DistDelta
		rd.Rates = append(rd.Rates, p.CumLen)
		rd.Dists = append(rd.Dists, dist)
	}
	return rd
}

// BuildLadders builds every block's R-D ladder sequentially.
func BuildLadders(blocks []*t1.Block) []rate.BlockRD {
	rd := make([]rate.BlockRD, len(blocks))
	for i, b := range blocks {
		rd[i] = LadderOf(b)
	}
	return rd
}

// AllocateLayers runs PCRD-opt once per quality layer against the
// cumulative rate targets, returning per-layer cumulative pass counts
// (monotone per block, as layer l extends layer l-1).
func AllocateLayers(blocks []*t1.Block, jobs []BlockJob, img *imgmodel.Image, opt Options, cumRates []float64, extraOverhead int) [][]int {
	return allocateLayersRD(obs.Active(), BuildLadders(blocks), img, opt, cumRates, extraOverhead)
}

// allocateLayersRD is the ladder-level core of AllocateLayers. The
// ladders' hulls are computed on first use (possibly already cached by
// the Tier-1 jobs) and reused across layers and overhead retries.
// Selections are identical for every hull provenance.
func allocateLayersRD(rec *obs.Recorder, rd []rate.BlockRD, img *imgmodel.Image, opt Options, cumRates []float64, extraOverhead int) [][]int {
	raw := img.W * img.H * len(img.Comps) * img.Depth / 8
	final := cumRates[len(cumRates)-1]
	keeps := make([][]int, len(cumRates))
	var prev []int
	for l, r := range cumRates {
		if r <= 0 { // unconstrained final layer: keep everything
			full := make([]int, len(rd))
			for i := range rd {
				full[i] = len(rd[i].Rates)
			}
			keeps[l] = full
		} else {
			overhead := 128 + 3*len(rd)*(l+1)/len(cumRates)
			if final > 0 {
				overhead += int(float64(extraOverhead) * r / final)
			} else {
				overhead += extraOverhead
			}
			budget := int(r*float64(raw)) - overhead
			keeps[l] = rate.Allocate(rec, rd, budget)
		}
		// Layers are embedded: each extends the previous selection.
		if prev != nil {
			for i := range keeps[l] {
				if keeps[l][i] < prev[i] {
					keeps[l][i] = prev[i]
				}
			}
		}
		prev = keeps[l]
	}
	return keeps
}

// ComputeMb returns the per-component, per-band M_b table (maximum
// coded bit planes) for a block set.
func ComputeMb(ncomp, nbands int, jobs []BlockJob, blocks []*t1.Block) [][]int {
	mb := make([][]int, ncomp)
	for c := range mb {
		mb[c] = make([]int, nbands)
		for b := range mb[c] {
			mb[c][b] = 1
		}
	}
	for i, j := range jobs {
		if blocks[i].NumBPS > mb[j.Comp][j.BandIdx] {
			mb[j.Comp][j.BandIdx] = blocks[i].NumBPS
		}
	}
	return mb
}

// MergeMb folds b into a element-wise (maximum), for the global M_b
// table of a tiled stream.
func MergeMb(a, b [][]int) [][]int {
	if a == nil {
		out := make([][]int, len(b))
		for i := range b {
			out[i] = append([]int(nil), b[i]...)
		}
		return out
	}
	for c := range a {
		for i := range a[c] {
			if b[c][i] > a[c][i] {
				a[c][i] = b[c][i]
			}
		}
	}
	return a
}

// AssemblePackets builds the packet body for one tile in progression
// order and returns the M_b table used. keeps holds one cumulative
// pass selection per quality layer; mbIn, when non-nil, supplies a
// precomputed (global) M_b table — required for multi-tile streams,
// whose header carries a single table.
func AssemblePackets(w, h, ncomp int, opt Options, jobs []BlockJob, blocks []*t1.Block, keeps [][]int, mbIn [][]int) ([]byte, [][]int) {
	bands := dwt.Layout(w, h, opt.Levels)
	nlayers := len(keeps)
	finalKeep := keeps[nlayers-1]
	mb := mbIn
	if mb == nil {
		mb = ComputeMb(ncomp, len(bands), jobs, blocks)
	}

	// Group jobs by (comp, band) for precinct filling.
	type key struct{ c, b int }
	byBand := map[key][]int{}
	for i, j := range jobs {
		k := key{j.Comp, j.BandIdx}
		byBand[k] = append(byBand[k], i)
	}

	// HT blocks also carry per-pass segment lengths in the packet
	// headers: the cleanup/SigProp/MagRef byte streams are separately
	// terminated by construction, exactly like TermAll MQ segments.
	style := t2.SegSingle
	if m := opt.Mode(); m.Base() == t1.ModeTermAll || m.IsHT() {
		style = t2.SegTermAll
	}

	// Persistent precinct state per (comp, band) across layers.
	precincts := map[key]*t2.Precinct{}
	for c := 0; c < ncomp; c++ {
		for bi, band := range bands {
			gw := (band.W + opt.CBW - 1) / opt.CBW
			gh := (band.H + opt.CBH - 1) / opt.CBH
			p := t2.NewPrecinct(gw, gh)
			for _, ji := range byBand[key{c, bi}] {
				j, blk := jobs[ji], blocks[ji]
				if blk.NumBPS == 0 || finalKeep[ji] == 0 {
					continue
				}
				for l := 0; l < nlayers; l++ {
					if keeps[l][ji] > 0 {
						p.FirstIncl[j.GY*gw+j.GX] = int32(l)
						break
					}
				}
				p.ZeroBPs[j.GY*gw+j.GX] = int32(mb[c][bi] - blk.NumBPS)
			}
			precincts[key{c, bi}] = p
		}
	}

	var body []byte
	pktSeq := 0
	for _, lrc := range PacketOrder(opt.Progression, nlayers, opt.Levels, ncomp) {
		l, r, c := lrc[0], lrc[1], lrc[2]
		var pkt []*t2.Precinct
		for _, bi := range ResBands(opt.Levels, r) {
			band := bands[bi]
			p := precincts[key{c, bi}]
			for i := range p.Blocks {
				p.Blocks[i] = nil
			}
			gw := (band.W + opt.CBW - 1) / opt.CBW
			for _, ji := range byBand[key{c, bi}] {
				j, blk := jobs[ji], blocks[ji]
				kPrev := 0
				if l > 0 {
					kPrev = keeps[l-1][ji]
				}
				k := keeps[l][ji]
				if k == kPrev || blk.NumBPS == 0 {
					continue
				}
				contrib := &t2.BlockContrib{
					NumPasses: k - kPrev,
					ZeroBP:    mb[c][bi] - blk.NumBPS,
				}
				off := 0
				if kPrev > 0 {
					off = blk.Passes[kPrev-1].CumLen
				}
				contrib.Data = blk.Data[off:blk.Passes[k-1].CumLen]
				if style == t2.SegTermAll {
					for _, ps := range blk.Passes[kPrev:k] {
						contrib.Segments = append(contrib.Segments, t2.Segment{Passes: 1, Len: ps.SegLen})
					}
				} else {
					contrib.Segments = []t2.Segment{{Passes: k - kPrev, Len: len(contrib.Data)}}
				}
				p.Blocks[j.GY*gw+j.GX] = contrib
			}
			pkt = append(pkt, p)
		}
		if opt.Resilience {
			body = appendSOP(body, pktSeq)
			pktSeq++
		}
		body = append(body, t2.EncodePacketEPH(pkt, l, opt.Resilience)...)
	}
	return body, mb
}

// appendSOP emits the 6-byte start-of-packet marker segment.
func appendSOP(body []byte, seq int) []byte {
	return append(body, 0xFF, 0x91, 0x00, 0x04, byte(seq>>8), byte(seq))
}

func buildStats(img *imgmodel.Image, jobs []BlockJob, blocks []*t1.Block, keep []int, headerBytes, bodyBytes int) Stats {
	s := Stats{
		W: img.W, H: img.H, NComp: len(img.Comps),
		Samples:     img.W * img.H * len(img.Comps),
		HeaderBytes: headerBytes,
		BodyBytes:   bodyBytes,
	}
	for i, b := range blocks {
		if b.NumBPS > 0 {
			s.Blocks++
		}
		s.T1Scanned += int64(b.TotalScanned())
		s.T1Coded += int64(b.TotalCoded())
		s.TotalPasses += len(b.Passes)
		s.KeptPasses += keep[i]
	}
	return s
}
