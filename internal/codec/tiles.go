package codec

import (
	"context"
	"fmt"
	"time"

	"j2kcell/internal/codestream"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/obs"
	"j2kcell/internal/rate"
	"j2kcell/internal/t1"
)

// Rect is one tile's placement within the image.
type Rect struct {
	X0, Y0, W, H int
}

// TileGrid returns the tile rectangles in raster order for an image
// split into tw×th tiles anchored at the origin (edge tiles shrink).
func TileGrid(w, h, tw, th int) []Rect {
	var out []Rect
	for y := 0; y < h; y += th {
		hh := th
		if y+hh > h {
			hh = h - y
		}
		for x := 0; x < w; x += tw {
			ww := tw
			if x+ww > w {
				ww = w - x
			}
			out = append(out, Rect{X0: x, Y0: y, W: ww, H: hh})
		}
	}
	return out
}

// tileCoded is one tile's Tier-1 output awaiting global rate control.
type tileCoded struct {
	rect   Rect
	img    *imgmodel.Image
	jobs   []BlockJob
	blocks []*t1.Block
	rd     []rate.BlockRD // ladders + hulls, rate-constrained encodes only
}

// EncodeTiled compresses img as a multi-tile codestream: each tile is
// transformed and Tier-1 coded independently (optionally across a
// worker pool), PCRD allocates the byte budget globally across every
// tile's blocks, and each tile's packets form its own tile-part.
func EncodeTiled(img *imgmodel.Image, opt Options, workers int) (*Result, error) {
	return EncodeTiledContext(context.Background(), img, opt, workers)
}

// EncodeTiledContext is EncodeTiled bound to a context. Cancellation
// stops the tile queue between tiles (and inside each tile's transform
// stages, which share the same context), worker panics are contained
// into *FaultError, and every tile's pooled planes are released on
// both paths.
func EncodeTiledContext(ctx context.Context, img *imgmodel.Image, opt Options, workers int) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rec := obs.Current(ctx)
	// SLO envelope; registered before containAPIFault (LIFO) so a
	// contained panic is already an error when it observes the outcome.
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	defer func() {
		if rec == nil {
			return
		}
		if err != nil {
			rec.OpFailed()
			return
		}
		rec.OpDone(obs.ClassOf(false, !opt.Lossless, true, opt.HT), time.Since(start))
	}()
	defer containAPIFault(rec, "tile", &err)
	if err := validateImage(img); err != nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	opt = opt.WithDefaults(img.W, img.H)
	if opt.TileW <= 0 || opt.TileH <= 0 {
		return nil, fmt.Errorf("codec: EncodeTiled needs positive tile dimensions")
	}
	ncomp := len(img.Comps)
	mode := opt.Mode()
	rates := opt.layerRates()
	constrained := !opt.Lossless && rates != nil
	grid := TileGrid(img.W, img.H, opt.TileW, opt.TileH)
	tiles := make([]*tileCoded, len(grid))

	// Admission control (DESIGN.md §12): one slot per operation,
	// held across the tile queue and the sequential finish.
	release, aerr := admitOp(ctx, workers, rec)
	if aerr != nil {
		return nil, aerr
	}
	defer release()

	// Whole-encode envelope span (coordinator lane), as in
	// EncodeParallel; the same lane carries the sequential finish spans.
	ln := rec.Acquire()
	total := ln.Begin(obs.StageEncode, 0, 0)
	defer ln.Release()
	defer total.End()

	// Transform and Tier-1 code every tile through the shared work
	// queue (tiles are fully independent), recycling each tile's
	// coefficient planes once its blocks are coded. Rate-constrained
	// encodes also build each block's R-D ladder and convex hull here,
	// inside the parallel stage.
	p := NewPipelineContext(ctx, workers)
	defer p.Close()
	p.run(obs.StageTile, 0, len(grid), func(i int) {
		r := grid[i]
		sub := img.SubImage(r.X0, r.Y0, r.W, r.H)
		// The per-tile transform runs inline on a single-worker inner
		// pipeline bound to the same context, so its stage faults and
		// cancellation propagate to the tile queue's latch.
		planes, terr := ForwardTransformPipeline(NewPipelineContext(p.Context(), 1), sub, opt)
		if terr != nil {
			p.Fail(terr)
			return
		}
		_, jobs := PlanBlocks(r.W, r.H, ncomp, opt)
		blocks := make([]*t1.Block, len(jobs))
		var rd []rate.BlockRD
		if constrained {
			rd = make([]rate.BlockRD, len(jobs))
		}
		// The tile job is an envelope span; the Tier-1 block loop gets
		// its own lane and span so the per-stage breakdown still sees
		// tiled Tier-1 time (the transform stages are covered by the
		// inner pipeline's own spans inside ForwardTransform).
		tln := rec.Acquire()
		sp := tln.Begin(tier1Stage(mode), 0, int32(i))
		for bi, j := range jobs {
			p := planes[j.Comp]
			blocks[bi] = t1.EncodeObs(rec, p.Data[j.Y0*p.Stride+j.X0:], j.W, j.H, p.Stride,
				j.Band.Orient, mode, j.Gain)
			if constrained {
				rd[bi] = LadderOf(blocks[bi])
				rd[bi].ComputeHullObs(rec)
			}
		}
		sp.End()
		tln.Release()
		for _, p := range planes {
			imgmodel.PutPlane(p)
		}
		tiles[i] = &tileCoded{rect: r, img: sub, jobs: jobs, blocks: blocks, rd: rd}
	})
	// A contained fault or cancellation leaves some tiles nil; surface
	// the first error before the merge would dereference them.
	if perr := p.Err(); perr != nil {
		return nil, perr
	}

	// Global M_b and global rate allocation across all tiles' blocks.
	nbands := 3*opt.Levels + 1
	var mb [][]int
	var allBlocks []*t1.Block
	var allJobs []BlockJob
	var allRD []rate.BlockRD
	bounds := make([]int, 0, len(tiles)+1)
	for _, t := range tiles {
		bounds = append(bounds, len(allBlocks))
		mb = MergeMb(mb, ComputeMb(ncomp, nbands, t.jobs, t.blocks))
		allBlocks = append(allBlocks, t.blocks...)
		allJobs = append(allJobs, t.jobs...)
		allRD = append(allRD, t.rd...)
	}
	bounds = append(bounds, len(allBlocks))
	build := func(keeps [][]int) ([]byte, int) {
		sp := ln.Begin(obs.StageT2, 0, 0)
		bodies := make([][]byte, len(tiles))
		bodyTotal := 0
		for i, t := range tiles {
			lo, hi := bounds[i], bounds[i+1]
			tileKeeps := make([][]int, len(keeps))
			for l := range keeps {
				tileKeeps[l] = keeps[l][lo:hi]
			}
			bodies[i], _ = AssemblePackets(t.rect.W, t.rect.H, ncomp, opt, t.jobs, t.blocks, tileKeeps, mb)
			bodyTotal += len(bodies[i])
		}
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
		sp.End()
		sp = ln.Begin(obs.StageFrame, 0, 0)
		data := codestream.EncodeTiles(head, bodies)
		sp.End()
		return data, bodyTotal
	}

	keeps := [][]int{FullKeep(allBlocks)}
	if constrained {
		sp := ln.Begin(obs.StageRate, 0, 0)
		keeps = allocateLayersRD(rec, allRD, img, opt, rates, 0)
		sp.End()
	}
	data, bodyTotal := build(keeps)
	if constrained {
		target := int(rates[len(rates)-1] * float64(img.W*img.H*ncomp*img.Depth/8))
		retry := int32(1)
		for extra := 16; len(data) > target && extra < target; extra *= 2 {
			sp := ln.Begin(obs.StageRate, 0, retry)
			keeps = allocateLayersRD(rec, allRD, img, opt, rates, len(data)-target+extra)
			sp.End()
			retry++
			data, bodyTotal = build(keeps)
		}
	}

	keep := keeps[len(keeps)-1]
	res = &Result{Data: data, Jobs: allJobs, Blocks: allBlocks, Keep: keep, LayerKeep: keeps}
	res.Stats = buildStats(img, allJobs, allBlocks, keep, len(data)-bodyTotal, bodyTotal)
	return res, nil
}

// decodeTiled reassembles a multi-tile stream. Tiles are fully
// independent and write disjoint regions of the output image, so they
// drain the same atomic work queue the tiled encoder uses (each tile's
// own stages then run inline on a single-worker inner pipeline, as on
// the encode side). Context errors and contained faults pass through
// unwrapped via the queue's fault latch; per-tile parse failures gain
// the tile index, earliest tile first.
func decodeTiled(ctx context.Context, h *codestream.Header, bodies [][]byte, dopt DecodeOptions) (*imgmodel.Image, error) {
	grid := TileGrid(h.W, h.H, h.TileW, h.TileH)
	if len(bodies) != len(grid) {
		return nil, fmt.Errorf("codec: %d tile parts for a %d-tile grid", len(bodies), len(grid))
	}
	discard := dopt.DiscardLevels
	if discard < 0 {
		discard = 0
	}
	if discard > h.Levels {
		discard = h.Levels
	}
	scale := 1 << uint(discard)
	if discard > 0 && (h.TileW%scale != 0 || h.TileH%scale != 0) {
		return nil, fmt.Errorf("codec: reduced decode of tiled stream needs tile size divisible by 2^%d", discard)
	}
	p := NewPipelineContext(ctx, dopt.Workers)
	defer p.Close()
	td := dopt
	td.Workers = 1 // tiles are the parallel unit; inner stages run inline
	terrs := make([]error, len(grid))
	firstTileErr := func() error {
		for i, err := range terrs {
			if err != nil {
				return formatErrf(err, "tile %d", i)
			}
		}
		return nil
	}
	if dopt.regionSet() {
		// Window decode: only tiles intersecting the region are decoded
		// at all; each contributes its cropped overlap.
		reg := dopt.Region
		out := imgmodel.NewImage(reg.W, reg.H, h.NComp, h.Depth)
		p.run(obs.StageTile, 0, len(grid), func(i int) {
			r := grid[i]
			tileRect := Rect{X0: r.X0, Y0: r.Y0, W: r.W, H: r.H}
			if !rectsIntersect(tileRect, reg) {
				return
			}
			lo := Rect{ // overlap in tile-local coordinates
				X0: maxI(reg.X0-r.X0, 0),
				Y0: maxI(reg.Y0-r.Y0, 0),
			}
			lo.W = minI(reg.X0+reg.W, r.X0+r.W) - (r.X0 + lo.X0)
			lo.H = minI(reg.Y0+reg.H, r.Y0+r.H) - (r.Y0 + lo.Y0)
			tdi := td
			tdi.Region = lo
			tile, err := decodeTile(p.Context(), h, r.W, r.H, bodies[i], tdi, nil)
			if err != nil {
				if passthrough(err) {
					p.Fail(err)
				} else {
					terrs[i] = err
				}
				return
			}
			crop := tile.SubImage(lo.X0, lo.Y0, lo.W, lo.H)
			out.Insert(crop, r.X0+lo.X0-reg.X0, r.Y0+lo.Y0-reg.Y0)
		})
		if perr := p.Err(); perr != nil {
			return nil, perr
		}
		if err := firstTileErr(); err != nil {
			return nil, err
		}
		return out, nil
	}
	rw := (h.W + scale - 1) / scale
	rh := (h.H + scale - 1) / scale
	out := imgmodel.NewImage(rw, rh, h.NComp, h.Depth)
	p.run(obs.StageTile, 0, len(grid), func(i int) {
		r := grid[i]
		tile, err := decodeTile(p.Context(), h, r.W, r.H, bodies[i], td, nil)
		if err != nil {
			if passthrough(err) {
				p.Fail(err)
			} else {
				terrs[i] = err
			}
			return
		}
		out.Insert(tile, r.X0/scale, r.Y0/scale)
	})
	if perr := p.Err(); perr != nil {
		return nil, perr
	}
	if err := firstTileErr(); err != nil {
		return nil, err
	}
	return out, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
