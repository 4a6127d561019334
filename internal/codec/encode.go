package codec

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"j2kcell/internal/codestream"
	"j2kcell/internal/dwt"
	"j2kcell/internal/faults"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/obs"
	"j2kcell/internal/rate"
	"j2kcell/internal/t1"
	"j2kcell/internal/t2"
)

// Encode compresses img into a complete JPEG2000 codestream on up to
// `workers` executors (1 runs inline). The image is split into the
// Options tile grid — one tile covering the image unless TileW/TileH
// say otherwise, the paper's configuration — and each tile runs the
// same body: MCT, DWT and Tier-1 (encodeTile). A one-tile grid runs
// that body on the operation's pipeline, parallel within each stage;
// a larger grid runs one tile per job of the shared work queue, each
// tile's stages inline. finish then allocates the byte budget across
// every tile's blocks and frames one tile-part per tile. The output is
// byte-identical for every worker count.
//
// Cancellation stops the stage work queues within a bounded number of
// outstanding jobs (at most one per worker), releases all pooled
// buffers, and returns ctx.Err() unwrapped. A panic inside any stage
// worker is contained into a *FaultError instead of crossing the API.
func Encode(ctx context.Context, img *imgmodel.Image, opt Options, workers int) (res *Result, err error) {
	ctx, op := beginOp(ctx, "encode")
	defer op.end(&err)
	if err := validateImage(img); err != nil {
		return nil, err
	}
	if opt.TileW < 0 || opt.TileH < 0 {
		return nil, fmt.Errorf("codec: negative tile size %dx%d", opt.TileW, opt.TileH)
	}
	grid := TileGrid(img.W, img.H, opt.TileW, opt.TileH)
	op.classify(obs.ClassOf(false, !opt.Lossless, len(grid) > 1, opt.HT))
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	opt = opt.WithDefaults(img.W, img.H)
	// One admission slot, held across the tile stages and the
	// sequential finish; the coordinator lane carries the finish spans.
	if _, aerr := op.admit(ctx, workers, obs.StageEncode); aerr != nil {
		return nil, aerr
	}
	// Rate-constrained encodes build each block's R-D ladder and convex
	// hull inside its Tier-1 job, leaving only the λ search sequential.
	constrained := opt.layerRates() != nil
	p := NewPipelineContext(ctx, workers)
	tiles := make([]tileCoded, len(grid))
	plans := planTiles(grid, len(img.Comps), opt)
	if len(grid) == 1 {
		tiles[0] = p.encodeTile(img, grid[0], plans[0], opt, constrained)
	} else {
		// Tiles are fully independent: each is one job, its stages run
		// inline on a one-worker pipeline bound to the same context, so
		// their faults and cancellation reach this queue's latch.
		p.run(obs.StageTile, 0, len(grid), func(i int) {
			r := grid[i]
			tp := NewPipelineContext(p.Context(), 1)
			tiles[i] = tp.encodeTile(img.View(r.X0, r.Y0, r.W, r.H), r, plans[i], opt, constrained)
			p.Fail(tp.Err())
		})
	}
	// Stage workers never leave a fault or cancellation behind silently:
	// the drain loops stop claiming, the pooled planes are already
	// returned, and the first recorded error surfaces here before the
	// sequential finish would touch possibly-missing blocks.
	if perr := p.Err(); perr != nil {
		return nil, perr
	}
	return finish(p.rec, img, opt, tiles), nil
}

// planTiles returns the block jobs of every tile of grid. Tiles of one
// size share one plan — a grid has at most four sizes — which every
// stage only reads.
func planTiles(grid []Rect, ncomp int, opt Options) [][]BlockJob {
	plans := make([][]BlockJob, len(grid))
	var seen []int // the first tile of each size
	for i, r := range grid {
		for _, j := range seen {
			if grid[j].W == r.W && grid[j].H == r.H {
				plans[i] = plans[j]
				break
			}
		}
		if plans[i] == nil {
			_, plans[i] = PlanBlocks(r.W, r.H, ncomp, opt)
			seen = append(seen, i)
		}
	}
	return plans
}

// encodeTile runs one tile's transform and Tier-1 on p: img is the
// tile, a view of the source image on a multi-tile grid, and jobs its
// block plan. MCT, DWT and Tier1Int run on the reversible path; MCT,
// DWT and Tier1Float, which quantizes inside each block job, on the
// irreversible path. With
// constrained set, each block's R-D ladder and hull are built in its
// Tier-1 job. The pooled planes are released before it returns, on
// the fault path too; the caller checks p.Err before using the blocks.
func (p *Pipeline) encodeTile(img *imgmodel.Image, r Rect, jobs []BlockJob, opt Options, constrained bool) tileCoded {
	var rd []rate.BlockRD
	if constrained {
		rd = make([]rate.BlockRD, len(jobs))
	}
	var blocks []*t1.Block
	if opt.Lossless {
		planes := p.MCTInt(img, opt)
		p.DWT53(planes, opt)
		blocks = p.Tier1Int(planes, jobs, opt.Mode(), rd)
		putPlanes(planes)
	} else {
		fplanes := p.MCTFloat(img, opt)
		p.DWT97(fplanes, opt)
		blocks = p.Tier1Float(fplanes, jobs, opt, rd)
		putPlanes(fplanes)
	}
	return tileCoded{rect: r, jobs: jobs, blocks: blocks, rd: rd}
}

// tileCoded is one tile's Tier-1 output awaiting global rate control.
type tileCoded struct {
	rect   Rect
	jobs   []BlockJob
	blocks []*t1.Block
	rd     []rate.BlockRD // ladders + hulls, rate-constrained encodes only
}

// Finish performs everything downstream of Tier-1 — PCRD rate
// allocation, Tier-2 packet assembly, and codestream framing — given
// the coded blocks of an untiled image. Encode and the Cell-parallel
// encoder both end in finish, which is what makes their outputs
// byte-identical by construction.
func Finish(img *imgmodel.Image, opt Options, jobs []BlockJob, blocks []*t1.Block) *Result {
	return finish(nil, img, opt, []tileCoded{{rect: Rect{W: img.W, H: img.H}, jobs: jobs, blocks: blocks}})
}

// finish is Finish over a tile grid, recording against the operation's
// recorder (nil: none). PCRD allocates one budget across every tile's
// blocks, M_b is merged across tiles into the one header table, and
// each tile's packets form its own tile-part. Tiles that carry R-D
// ladders had their hulls computed inside the Tier-1 jobs; otherwise
// the ladders are built here. The result is byte-identical either way
// — hulls and selections are deterministic functions of the ladders.
func finish(rec *obs.Recorder, img *imgmodel.Image, opt Options, tiles []tileCoded) *Result {
	opt = opt.WithDefaults(img.W, img.H)
	ncomp := len(img.Comps)
	mode := opt.Mode()

	// The finish stages — PCRD rate control, Tier-2 assembly, framing —
	// run on this coordinator lane; in the Amdahl report they are the
	// sequential tail the paper measures in Table 2.
	ln := rec.Acquire()
	defer ln.Release()

	// Every tile's blocks in tile order, tile i's at bounds[i:i+2]; a
	// one-tile grid keeps its tile's slices as they are. The header
	// carries one M_b table, the maximum over the tiles.
	nbands := 3*opt.Levels + 1
	jobs, blocks, rd := tiles[0].jobs, tiles[0].blocks, tiles[0].rd
	mb := ComputeMb(ncomp, nbands, jobs, blocks)
	bounds := []int{0, len(blocks)}
	if len(tiles) > 1 {
		n := 0
		for _, t := range tiles {
			n += len(t.blocks)
		}
		jobs = append(make([]BlockJob, 0, n), jobs...)
		blocks = append(make([]*t1.Block, 0, n), blocks...)
		if rd != nil {
			rd = append(make([]rate.BlockRD, 0, n), rd...)
		}
	}
	for _, t := range tiles[1:] {
		mergeMb(mb, ComputeMb(ncomp, nbands, t.jobs, t.blocks))
		jobs = append(jobs, t.jobs...)
		blocks = append(blocks, t.blocks...)
		rd = append(rd, t.rd...)
		bounds = append(bounds, len(blocks))
	}

	// Tiles of one size code with the same precinct grids, which are
	// reset and reused rather than rebuilt tile after tile.
	precincts := map[[2]int][]*t2.Precinct{}
	// build writes the codestream for one pass selection into buf, the
	// one output buffer: the main header, then per tile its SOT/SOD,
	// its packets — every kept Tier-1 byte copied once, straight from
	// its block — and its patched Psot, then EOC. buf is sized up front
	// from the kept bytes and reused by the overhead retries; build
	// returns the stream and its packet bytes.
	var buf []byte
	build := func(keeps [][]int) ([]byte, int) {
		head := &codestream.Header{
			W: img.W, H: img.H, NComp: ncomp, Depth: img.Depth,
			Levels: opt.Levels, CBW: opt.CBW, CBH: opt.CBH,
			TileW: opt.TileW, TileH: opt.TileH,
			Layers: len(keeps), Progression: int(opt.Progression),
			SOPMarkers: opt.Resilience,
			Lossless:   opt.Lossless, UseMCT: ncomp == 3,
			TermAll: mode.Base() == t1.ModeTermAll, SegSym: mode.SegSym(),
			HT: opt.HT, BaseDelta: opt.BaseDelta, Mb: mb,
		}
		buf = slices.Grow(buf[:0], streamBound(head, len(tiles), opt, blocks, keeps))
		sp := ln.Begin(obs.StageFrame, 0, 0)
		buf = codestream.AppendHeader(buf, head)
		sp.End()
		sp = ln.Begin(obs.StageT2, 0, 0)
		bodyBytes := 0
		tileKeeps := make([][]int, len(keeps))
		for i, t := range tiles {
			for l := range keeps {
				tileKeeps[l] = keeps[l][bounds[i]:bounds[i+1]]
			}
			var sot int
			buf, sot = codestream.AppendTilePart(buf, i)
			n := len(buf)
			size := [2]int{t.rect.W, t.rect.H}
			buf, precincts[size] = appendPackets(buf, precincts[size], t.rect.W, t.rect.H, ncomp, opt, t.jobs, t.blocks, tileKeeps, mb)
			bodyBytes += len(buf) - n
			codestream.EndTilePart(buf, sot)
		}
		buf = codestream.AppendEOC(buf)
		sp.End()
		return buf, bodyBytes
	}

	rates := opt.layerRates()
	keeps := [][]int{FullKeep(blocks)}
	if rates != nil {
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
	data, bodyBytes := build(keeps)
	if rates != nil {
		// Header sizes are only known after assembly; if the initial
		// overhead estimate was short, shave the body budget and retry.
		target := int(rates[len(rates)-1] * float64(img.W*img.H*ncomp*img.Depth/8))
		retry := int32(1)
		for extra := 16; len(data) > target && extra < target; extra *= 2 {
			sp := ln.Begin(obs.StageRate, 0, retry)
			keeps = allocateLayersRD(rec, rd, img, opt, rates, len(data)-target+extra)
			sp.End()
			retry++
			data, bodyBytes = build(keeps)
		}
	}

	keep := keeps[len(keeps)-1]
	res := &Result{Data: data, Jobs: jobs, Blocks: blocks, Keep: keep, LayerKeep: keeps}
	res.Stats = buildStats(img, jobs, blocks, keep, len(data)-bodyBytes, bodyBytes)
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
// (monotone per block, as layer l extends layer l-1). It records
// nothing; the encoders run allocateLayersRD under their operation's
// recorder.
func AllocateLayers(blocks []*t1.Block, jobs []BlockJob, img *imgmodel.Image, opt Options, cumRates []float64, extraOverhead int) [][]int {
	return allocateLayersRD(nil, BuildLadders(blocks), img, opt, cumRates, extraOverhead)
}

// allocateLayersRD is the ladder-level core of AllocateLayers. The
// ladders' hulls are computed on first use (possibly already cached by
// the Tier-1 jobs) and reused across layers and overhead retries.
// Selections are identical for every hull provenance.
//
// PCRD runs on the coordinator, outside any Pipeline.job, and has no
// error return: rate.Allocate panics with the *faults.InjectedError of
// an injected "rate" fault. Such a panic, like any other from PCRD,
// leaves here as a *FaultError{Stage: "rate"} panic, the injected error
// in its Err as Pipeline.job puts it, and the API envelope reports it
// as it stands.
func allocateLayersRD(rec *obs.Recorder, rd []rate.BlockRD, img *imgmodel.Image, opt Options, cumRates []float64, extraOverhead int) [][]int {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(*faults.InjectedError); ok {
				panic(&FaultError{Stage: "rate", Lane: -1, Job: -1, Err: err})
			}
			panic(asFault(r, "rate", -1, -1, 0))
		}
	}()
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

// mergeMb folds b into a element-wise (maximum), for the one M_b
// table of a tiled stream.
func mergeMb(a, b [][]int) {
	for c := range a {
		for i := range a[c] {
			a[c][i] = max(a[c][i], b[c][i])
		}
	}
}

// AssemblePackets builds the packet body for one tile in progression
// order and returns the M_b table used. keeps holds one cumulative
// pass selection per quality layer; mbIn, when non-nil, supplies a
// precomputed (global) M_b table — required for multi-tile streams,
// whose header carries a single table. The encoder itself writes the
// packets straight into its codestream buffer (appendPackets); this
// form serves callers that time Tier-2 apart from framing.
func AssemblePackets(w, h, ncomp int, opt Options, jobs []BlockJob, blocks []*t1.Block, keeps [][]int, mbIn [][]int) ([]byte, [][]int) {
	mb := mbIn
	if mb == nil {
		mb = ComputeMb(ncomp, 3*opt.Levels+1, jobs, blocks)
	}
	body, _ := appendPackets(nil, nil, w, h, ncomp, opt, jobs, blocks, keeps, mb)
	return body, mb
}

// appendPackets appends one tile's packets, in progression order, to
// dst under the M_b table mb and returns the extended slice and the
// tile's precincts, one per (component, band). precincts, when it
// holds those of an earlier tile of the same size, is reset and coded
// with again; nil builds new ones.
func appendPackets(dst []byte, precincts []*t2.Precinct, w, h, ncomp int, opt Options, jobs []BlockJob, blocks []*t1.Block, keeps [][]int, mb [][]int) ([]byte, []*t2.Precinct) {
	bands := dwt.Layout(w, h, opt.Levels)
	nlayers := len(keeps)
	finalKeep := keeps[nlayers-1]

	// Group the jobs by (comp, band) — band key c·nb+bi — for precinct
	// filling: key k's jobs are byBand[first[k]:first[k+1]], in job
	// order.
	nb := len(bands)
	first := make([]int, ncomp*nb+1)
	for _, j := range jobs {
		first[j.Comp*nb+j.BandIdx+1]++
	}
	for k := 1; k < len(first); k++ {
		first[k] += first[k-1]
	}
	byBand := make([]int32, len(jobs))
	next := slices.Clone(first[:len(first)-1])
	for i, j := range jobs {
		k := j.Comp*nb + j.BandIdx
		byBand[next[k]] = int32(i)
		next[k]++
	}
	bandJobs := func(c, bi int) []int32 { k := c*nb + bi; return byBand[first[k]:first[k+1]] }

	style := t2.SegSingle
	if opt.Mode().PerPass() {
		style = t2.SegTermAll
	}

	// Persistent precinct state per (comp, band) across layers.
	if precincts == nil {
		precincts = make([]*t2.Precinct, ncomp*nb)
		for k := range precincts {
			band := bands[k%nb]
			precincts[k] = t2.NewPrecinct(ceilDiv(band.W, opt.CBW), ceilDiv(band.H, opt.CBH))
		}
	} else {
		for _, p := range precincts {
			p.Reset()
		}
	}
	for c := 0; c < ncomp; c++ {
		for bi := range bands {
			p := precincts[c*nb+bi]
			gw := p.W
			for _, ji := range bandJobs(c, bi) {
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
		}
	}

	// A block contributes to at most one packet per layer, and each
	// packet is written before the next is filled, so one contribution
	// per block serves every layer, and one segment list every packet.
	contribs := make([]t2.BlockContrib, len(jobs))
	var segs []t2.Segment
	pktSeq := 0
	for _, lrc := range PacketOrder(opt.Progression, nlayers, opt.Levels, ncomp) {
		l, r, c := lrc[0], lrc[1], lrc[2]
		var pkt []*t2.Precinct
		segs = segs[:0]
		for _, bi := range ResBands(opt.Levels, r) {
			p := precincts[c*nb+bi]
			clear(p.Blocks)
			gw := p.W
			for _, ji := range bandJobs(c, bi) {
				j, blk := jobs[ji], blocks[ji]
				kPrev := 0
				if l > 0 {
					kPrev = keeps[l-1][ji]
				}
				k := keeps[l][ji]
				if k == kPrev || blk.NumBPS == 0 {
					continue
				}
				off := 0
				if kPrev > 0 {
					off = blk.Passes[kPrev-1].CumLen
				}
				contrib := &contribs[ji]
				*contrib = t2.BlockContrib{
					NumPasses: k - kPrev,
					ZeroBP:    mb[c][bi] - blk.NumBPS,
					Data:      blk.Data[off:blk.Passes[k-1].CumLen],
				}
				// Earlier contributions keep the segments they were
				// given even when segs grows into a new array.
				n := len(segs)
				if style == t2.SegTermAll {
					for _, ps := range blk.Passes[kPrev:k] {
						segs = append(segs, t2.Segment{Passes: 1, Len: int(ps.SegLen)})
					}
				} else {
					segs = append(segs, t2.Segment{Passes: k - kPrev, Len: len(contrib.Data)})
				}
				contrib.Segments = segs[n:len(segs):len(segs)]
				p.Blocks[j.GY*gw+j.GX] = contrib
			}
			pkt = append(pkt, p)
		}
		if opt.Resilience {
			dst = appendSOP(dst, pktSeq)
			pktSeq++
		}
		dst = t2.EncodePacketEPH(dst, pkt, l, opt.Resilience)
	}
	return dst, precincts
}

// streamBound is the capacity finish gives its codestream buffer: the
// framing, every kept Tier-1 byte and a bound on the packet headers.
// Per packet that is one alignment byte, plus the SOP and EPH markers
// of a resilient stream. Per block it is 4 bits of inclusion code a
// layer, 8 of zero-plane code, the pass-count code and the Lblock
// comma terminator of each contributing layer, the Lblock commas, and
// for every coded segment length the most bits any of the block's
// lengths needs (an Lblock only grows, so a later short segment may
// cost as much as the longest). Bit stuffing adds at most one bit in
// eight. A stream that outgrows the bound still encodes, one regrowth
// later.
func streamBound(head *codestream.Header, ntiles int, opt Options, blocks []*t1.Block, keeps [][]int) int {
	nlayers := len(keeps)
	npkt := ntiles * nlayers * (opt.Levels + 1) * head.NComp
	perPkt := 1
	if opt.Resilience {
		perPkt += 6 + 2
	}
	n := codestream.HeaderLen(head) + ntiles*codestream.TilePartHeaderLen + codestream.EOCLen + npkt*perPkt
	perPass := opt.Mode().PerPass()
	final := keeps[nlayers-1]
	hdr := 0 // packet-header bits
	for i, b := range blocks {
		hdr += 4 * nlayers
		k := final[i]
		if k == 0 {
			continue
		}
		n += b.Passes[k-1].CumLen
		nseg, prev := 0, 0
		for l := range keeps {
			if kl := keeps[l][i]; kl > prev {
				hdr += passCountBits(kl-prev) + 1
				nseg, prev = nseg+1, kl
			}
		}
		lenBits := bitLen(b.Passes[k-1].CumLen) + bitLen(k) - 1
		if perPass {
			nseg, lenBits = k, 0
			for _, ps := range b.Passes[:k] {
				lenBits = max(lenBits, bitLen(int(ps.SegLen)))
			}
		}
		hdr += 8 + max(lenBits-3, 0) + nseg*lenBits
	}
	return n + (hdr+hdr/8)/8 + 1
}

// passCountBits is the length of the packet-header code for n passes
// (T.800 Table B.4).
func passCountBits(n int) int {
	switch {
	case n == 1:
		return 1
	case n == 2:
		return 2
	case n <= 5:
		return 4
	case n <= 36:
		return 9
	}
	return 16
}

// bitLen returns the bit length of v >= 0.
func bitLen(v int) int { return bits.Len(uint(v)) }

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
