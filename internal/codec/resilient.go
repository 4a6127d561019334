package codec

import (
	"context"
	"errors"
	"fmt"

	"j2kcell/internal/codestream"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/obs"
)

// DecodeResilient decodes a possibly damaged codestream as far as
// possible and reports what was lost. Stream damage never surfaces as
// an error: every input — valid, bit-flipped, truncated, or arbitrary
// bytes — yields an image and a DamageReport. An undamaged stream
// decodes pixel-identical to Decode with rep.Complete set; a damaged
// one keeps every recoverable tile, packet and code block, conceals the
// rest as zero coefficients, and maps the loss in the report. dopt
// selects layers, resolution and Region as for Decode; an option the
// stream cannot honour is noted in the report and falls back (the
// Region is dropped, the resolution is full). When even the main header
// is unusable the image is a 1×1 placeholder and rep.HeaderOK is
// false. err is non-nil only for context cancellation,
// admission-control rejection (ErrOverloaded) or a panic contained at
// the API (*FaultError, a codec bug), in which case the image and
// report are nil.
func DecodeResilient(ctx context.Context, data []byte, dopt DecodeOptions) (img *imgmodel.Image, rep *DamageReport, err error) {
	ctx, op := beginOp(ctx, "decode-resilient")
	defer op.end(&err)
	img, rep, _, err = decodeStream(ctx, &op, data, dopt)
	// Header-level salvage failures still count as (resilient) decode
	// operations; the class has the lossy/tiled/HT bits once known.
	op.classify(op.cls.Resilient())
	if err != nil {
		return nil, nil, err
	}
	return img, rep, nil
}

// decodeStream is the one decode driver; Decode and DecodeResilient
// are policies over it. Inside op's envelope it admits the operation,
// parses the stream with the salvaging parser, checks dopt against the
// header and decodes the tile grid, concealing whatever is damaged as
// zero coefficients and mapping it in rep.
//
// cause is the first damage recorded: a header or framing problem,
// then an option problem, then the damage of the lowest-indexed tile —
// its first bad packet in progression order, else its first bad Tier-1
// task in task order, else the fault that lost it whole — so the
// choice does not depend on the worker count. Tile causes that are not
// faults are *FormatErrors naming the tile. cause is nil exactly when
// rep.Complete. err is non-nil only for cancellation (ctx.Err(),
// unwrapped) and admission rejection.
func decodeStream(ctx context.Context, op *apiOp, data []byte, dopt DecodeOptions) (img *imgmodel.Image, rep *DamageReport, cause, err error) {
	op.classify(obs.ClassOf(true, false, false, false))
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, nil, cerr
	}
	// Multi-worker decodes hold one shared-scheduler slot from header
	// parse to the last inverse stage.
	if _, aerr := op.admit(ctx, dopt.Workers, obs.StageDecode); aerr != nil {
		return nil, nil, nil, aerr
	}

	rep = &DamageReport{HeaderOK: true}
	// note records damage that belongs to no tile.
	note := func(err error) {
		rep.Notes = append(rep.Notes, err.Error())
		if cause == nil {
			cause = err
		}
	}
	// Work spans go on a leased lane, as the stage pipelines' do, so a
	// one-worker decode reports one track.
	ln := op.rec.Acquire()
	sp := ln.Begin(obs.StageParse, 0, 0)
	h, bodies, sinfo, herr := parseStream(data, dopt.limits())
	sp.End()
	ln.Release()
	if herr != nil {
		rep.HeaderOK = false
		note(herr)
		return imgmodel.NewImage(1, 1, 1, 8), rep, cause, nil
	}
	grid := TileGrid(h.W, h.H, h.TileW, h.TileH)
	op.classify(obs.ClassOf(true, !h.Lossless, len(grid) > 1, h.HT))
	rep.TotalTiles = len(grid)
	rep.Resyncs = sinfo.Resyncs
	rep.Truncated = sinfo.Truncated
	rep.TotalBytes = sinfo.BodyBytes
	if sinfo.Err != nil {
		note(formatErr(sinfo.Err))
	}
	dopt = checkOptions(h, len(grid), dopt, note)
	reg, scale := dopt.Region, 1<<uint(dopt.DiscardLevels)
	outW, outH := (h.W+scale-1)/scale, (h.H+scale-1)/scale
	if dopt.regionSet() {
		outW, outH = reg.W, reg.H
	}

	// The output is allocated once, and every tile writes its pixels
	// straight into their place in it. place returns the part of tile r
	// the output takes — tile-local coordinates of its reconstruction:
	// the whole tile at reduced scale, or its overlap with the Region —
	// and where that part goes in the output; ok is false for a tile
	// outside the Region, which is not decoded at all.
	img = imgmodel.NewImage(outW, outH, h.NComp, h.Depth)
	place := func(r Rect) (win Rect, x, y int, ok bool) {
		if !dopt.regionSet() {
			win.W, win.H = dwt.LevelDims(r.W, r.H, dopt.DiscardLevels)
			return win, r.X0 / scale, r.Y0 / scale, true
		}
		win = Rect{X0: max(reg.X0-r.X0, 0), Y0: max(reg.Y0-r.Y0, 0)}
		win.W = min(reg.X0+reg.W, r.X0+r.W) - (r.X0 + win.X0)
		win.H = min(reg.Y0+reg.H, r.Y0+r.H) - (r.Y0 + win.Y0)
		return win, r.X0 + win.X0 - reg.X0, r.Y0 + win.Y0 - reg.Y0, win.W > 0 && win.H > 0
	}
	// decodeAt decodes tile i into its window of the output. A tile
	// outside the Region and a tile that never arrived write nothing.
	dmgs := make([]*tileDamage, len(grid))
	decodeAt := func(ctx context.Context, i int, td DecodeOptions) error {
		win, x, y, ok := place(grid[i])
		if !ok || bodies[i] == nil {
			return nil
		}
		if td.regionSet() {
			td.Region = win
		}
		dmgs[i] = &tileDamage{}
		return decodeTile(ctx, h, grid[i].W, grid[i].H, bodies[i], td, dmgs[i], img.View(x, y, win.W, win.H))
	}

	// A tile whose decode fails — cancellation aside — is concealed
	// whole: its window of the output is cleared below, and it is
	// reported lost.
	terrs := make([]error, len(grid))
	if len(grid) == 1 {
		terrs[0] = decodeAt(ctx, 0, dopt)
		if cerr := ctx.Err(); terrs[0] != nil && cerr != nil {
			return nil, nil, nil, cerr
		}
	} else {
		p := NewPipelineContext(ctx, dopt.Workers)
		defer p.Close()
		td := dopt
		td.Workers = 1 // tiles are the parallel unit; inner stages run inline
		// Tiles write disjoint windows of the output image. A fault
		// that escapes a tile's own containment (or is injected at the
		// tile stage) is demoted to whole-tile loss, by the policy that
		// demotes Tier-1 faults to block loss inside decodeTile.
		done := make([]bool, len(grid))
		// A contained panic hits a tile that is not yet done and is
		// demoted with it, so faults cannot outlast the budget here.
		_, err := p.runDemoting(obs.StageTile, len(grid), func(i int) {
			if done[i] {
				return
			}
			done[i] = true
			if terr := decodeAt(p.Context(), i, td); terr != nil {
				if p.Context().Err() != nil {
					p.Fail(terr)
				} else {
					terrs[i] = terr
				}
			}
		}, func(fe *FaultError) {
			if fe.Job >= 0 && fe.Job < len(grid) && terrs[fe.Job] == nil {
				terrs[fe.Job] = fe
				done[fe.Job] = true
			} else {
				note(fe)
			}
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}

	// Aggregate per-tile damage into the report. Regions are absolute
	// full-resolution image coordinates.
	tileCause := func(i int, err error) {
		if cause == nil {
			cause = tileErr(i, err)
		}
	}
	ppt := len(PacketOrder(Progression(h.Progression), h.Layers, h.Levels, h.NComp))
	for i, r := range grid {
		dmg := dmgs[i]
		switch {
		case dmg == nil && terrs[i] != nil:
			// A fault hit the tile's job before its decode began: none
			// of its packets was read.
			dmg = &tileDamage{totalPackets: ppt}
		case dmg == nil:
			dmg = &tileDamage{}
		}
		whole := Rect{X0: r.X0, Y0: r.Y0, W: r.W, H: r.H}
		if bodies[i] == nil {
			rep.MissingTiles++
			rep.TotalPackets += ppt
			rep.LostPackets += ppt
			rep.Tiles = append(rep.Tiles, TileDamage{
				Index: i, Missing: true, TotalPackets: ppt, LostPackets: ppt, Region: whole,
			})
			tileCause(i, errTileMissing)
			continue
		}
		rep.TotalPackets += dmg.totalPackets
		rep.TotalBlocks += dmg.totalBlocks
		rep.Resyncs += dmg.resyncs
		rep.Truncated = rep.Truncated || dmg.truncated
		t := TileDamage{
			Index: i, Truncated: dmg.truncated,
			TotalPackets: dmg.totalPackets, LostPackets: dmg.lostPackets,
			TotalBlocks: dmg.totalBlocks, Resyncs: dmg.resyncs,
			LostBlocks: dmg.lost, Faults: dmg.faults,
		}
		if terr := terrs[i]; terr != nil {
			// The whole tile is concealed: whatever its packet walk
			// salvaged, and whatever pixels it wrote before failing, are
			// cleared from the image.
			if win, x, y, ok := place(r); ok {
				clearImage(img.View(x, y, win.W, win.H))
			}
			rep.LostPackets += dmg.totalPackets
			rep.LostBlocks += dmg.totalBlocks
			t.LostPackets, t.LostBlocks, t.Faults, t.Region = dmg.totalPackets, nil, nil, whole
			var fe *FaultError
			if errors.As(terr, &fe) {
				t.Faults = []FaultRef{{Stage: fe.Stage, Lane: fe.Lane, Job: fe.Job}}
			}
			rep.Notes = append(rep.Notes, fmt.Sprintf("tile %d concealed: %v", i, terr))
			rep.Tiles = append(rep.Tiles, t)
			dmg.fail(terr)
			tileCause(i, dmg.cause)
			continue
		}
		rep.LostPackets += dmg.lostPackets
		rep.LostBlocks += len(dmg.lost)
		rep.SalvagedBytes += dmg.salvaged
		if dmg.cause == nil {
			continue
		}
		for j := range t.LostBlocks {
			t.LostBlocks[j].Tile = i
			t.LostBlocks[j].Region.X0 += r.X0
			t.LostBlocks[j].Region.Y0 += r.Y0
			t.Region = unionRect(t.Region, t.LostBlocks[j].Region)
		}
		if t.Region.W == 0 && (t.LostPackets > 0 || t.Truncated) {
			// Packet loss without a block map (e.g. whole layers gone):
			// the worst case is the whole tile.
			t.Region = whole
		}
		rep.Tiles = append(rep.Tiles, t)
		tileCause(i, dmg.cause)
	}
	rep.Complete = cause == nil
	op.rec.Add(obs.CtrResyncs, int64(rep.Resyncs))
	op.rec.Add(obs.CtrConcealedBlocks, int64(rep.LostBlocks))
	return img, rep, cause, nil
}

// errTileMissing is the damage of a tile whose tile-part never arrived.
var errTileMissing = errors.New("tile-part missing")

// tileErr locates the damage err of tile i: a *FormatError naming the
// tile, unless err must cross the API as it is.
func tileErr(i int, err error) error {
	if passthrough(err) {
		return err
	}
	return formatErrf(err, "tile %d", i)
}

// checkOptions resolves dopt against the header, clamping
// DiscardLevels to [0, h.Levels]. Each problem goes to note, and the
// decode falls back: a Region combined with DiscardLevels or reaching
// outside the image is dropped, so the full image decodes, and a
// DiscardLevels the tile size of a multi-tile grid cannot honour (the
// reduced tiles would not abut) decodes at full resolution.
func checkOptions(h *codestream.Header, ntiles int, dopt DecodeOptions, note func(error)) DecodeOptions {
	if reg := dopt.Region; dopt.regionSet() {
		switch {
		case dopt.DiscardLevels != 0:
			note(fmt.Errorf("codec: Region cannot be combined with DiscardLevels"))
			dopt.Region = Rect{}
		case reg.X0 < 0 || reg.Y0 < 0 || reg.X0+reg.W > h.W || reg.Y0+reg.H > h.H:
			note(fmt.Errorf("codec: region %+v outside %dx%d image", reg, h.W, h.H))
			dopt.Region = Rect{}
		}
	}
	discard := min(max(dopt.DiscardLevels, 0), h.Levels)
	if scale := 1 << uint(discard); ntiles > 1 && (h.TileW%scale != 0 || h.TileH%scale != 0) {
		note(fmt.Errorf("codec: reduced decode of tiled stream needs tile size divisible by 2^%d", discard))
		discard = 0
	}
	dopt.DiscardLevels = discard
	return dopt
}
