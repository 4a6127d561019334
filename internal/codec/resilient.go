package codec

import (
	"context"
	"errors"
	"fmt"

	"j2kcell/internal/codestream"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/jp2"
	"j2kcell/internal/obs"
)

// DecodeResilient decodes a possibly damaged codestream as far as
// possible and reports what was lost. Stream damage never surfaces as
// an error: every input — valid, bit-flipped, truncated, or arbitrary
// bytes — yields an image and a DamageReport. An undamaged stream
// decodes pixel-identical to Decode with rep.Complete set; a damaged
// one keeps every recoverable tile, packet and code block, conceals the
// rest as zero coefficients, and maps the loss in the report. When even
// the main header is unusable the image is a 1×1 placeholder and
// rep.HeaderOK is false. err is non-nil only for context
// cancellation, admission-control rejection (ErrOverloaded) or a panic
// contained at the API (*FaultError, a codec bug), in which case the
// image and report are nil.
func DecodeResilient(ctx context.Context, data []byte, dopt DecodeOptions) (img *imgmodel.Image, rep *DamageReport, err error) {
	ctx, op := beginOp(ctx, "decode-resilient")
	defer op.end(&err)
	// Header-level salvage failures still count as (resilient) decode
	// operations; the class gains the lossy/tiled/HT bits once known.
	op.classify(obs.ClassOf(true, false, false, false).Resilient())
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, cerr
	}
	if _, aerr := op.admit(ctx, dopt.Workers, obs.StageDecode); aerr != nil {
		return nil, nil, aerr
	}

	rep = &DamageReport{HeaderOK: true}
	fail := func(note string) (*imgmodel.Image, *DamageReport, error) {
		rep.HeaderOK = false
		rep.Notes = append(rep.Notes, note)
		return imgmodel.NewImage(1, 1, 1, 8), rep, nil
	}
	ln := op.rec.Acquire() // a leased work lane, as in Decode
	sp := ln.Begin(obs.StageParse, 0, 0)
	var uerr, herr error
	var h *codestream.Header
	var bodies [][]byte
	var sinfo *codestream.SalvageInfo
	if jp2.IsJP2(data) {
		_, data, uerr = jp2.Unwrap(data)
	}
	if uerr == nil {
		h, bodies, sinfo, herr = codestream.DecodeTilesSalvage(data, dopt.limits())
	}
	sp.End()
	ln.Release()
	if uerr != nil {
		return fail(fmt.Sprintf("jp2 container unusable: %v", uerr))
	}
	if herr != nil {
		return fail(fmt.Sprintf("main header unusable: %v", herr))
	}
	grid := TileGrid(h.W, h.H, h.TileW, h.TileH)
	op.classify(obs.ClassOf(true, !h.Lossless, len(grid) > 1, h.HT).Resilient())
	rep.TotalTiles = len(grid)
	rep.Resyncs += sinfo.Resyncs
	rep.Truncated = sinfo.Truncated
	rep.TotalBytes = sinfo.BodyBytes

	// Progressive options the best-effort path cannot honor are ignored
	// and noted, never fatal: the caller asked for whatever is
	// recoverable, not for an error.
	if dopt.regionSet() {
		rep.Notes = append(rep.Notes, "Region not supported in best-effort decode; full image returned")
		dopt.Region = Rect{}
	}
	discard, ok := discardLevels(h, len(grid), dopt.DiscardLevels)
	scale := 1 << uint(discard)
	if !ok {
		rep.Notes = append(rep.Notes, fmt.Sprintf("DiscardLevels=%d ignored: tile size not divisible by %d", discard, scale))
		discard, scale = 0, 1
	}
	dopt.DiscardLevels = discard

	// Decode the declared grid tile by tile into a zeroed image: a tile
	// that is missing, undecodable, or faulted simply stays zero. The
	// retry loop demotes tile-stage faults the same way the Tier-1 loop
	// inside decodeTile demotes block-stage faults.
	rw := (h.W + scale - 1) / scale
	rh := (h.H + scale - 1) / scale
	out := imgmodel.NewImage(rw, rh, h.NComp, h.Depth)
	p := NewPipelineContext(ctx, dopt.Workers)
	defer p.Close()
	td := dopt
	if len(grid) > 1 {
		td.Workers = 1 // tiles are the parallel unit, as in Decode
	}
	dmgs := make([]*tileDamage, len(grid))
	terrs := make([]error, len(grid))
	done := make([]bool, len(grid))
	for attempt := 0; attempt <= len(grid)+4; attempt++ {
		p.run(obs.StageTile, 0, len(grid), func(i int) {
			if done[i] {
				return
			}
			done[i] = true
			if bodies[i] == nil {
				return // missing tile-part: accounted below
			}
			dmg := &tileDamage{}
			dmgs[i] = dmg
			r := grid[i]
			tile, terr := decodeTile(p.Context(), h, r.W, r.H, bodies[i], td, dmg)
			if terr != nil {
				if p.Context().Err() != nil {
					p.Fail(terr)
				} else {
					terrs[i] = terr
				}
				return
			}
			out.Insert(tile, r.X0/scale, r.Y0/scale)
		})
		perr := p.Err()
		if perr == nil {
			break
		}
		var fe *FaultError
		if !errors.As(perr, &fe) || p.Context().Err() != nil {
			return nil, nil, perr
		}
		// A fault escaped a tile's own containment (or was injected at
		// the tile stage): demote it to whole-tile loss and resume.
		if fe.Job >= 0 && fe.Job < len(grid) && terrs[fe.Job] == nil {
			terrs[fe.Job] = perr
			done[fe.Job] = true
		} else {
			rep.Notes = append(rep.Notes, fmt.Sprintf("contained fault in stage %s", fe.Stage))
		}
		p.clearFault()
	}

	// Aggregate per-tile damage into the report. Regions are absolute
	// full-resolution image coordinates.
	ppt := len(PacketOrder(Progression(h.Progression), h.Layers, h.Levels, h.NComp))
	for i, r := range grid {
		dmg := dmgs[i]
		if dmg == nil {
			dmg = &tileDamage{}
		}
		if bodies[i] == nil {
			rep.MissingTiles++
			rep.TotalPackets += ppt
			rep.LostPackets += ppt
			rep.Tiles = append(rep.Tiles, TileDamage{
				Index: i, Missing: true, TotalPackets: ppt, LostPackets: ppt,
				Region: Rect{X0: r.X0, Y0: r.Y0, W: r.W, H: r.H},
			})
			continue
		}
		if terr := terrs[i]; terr != nil {
			// The whole tile is concealed: whatever its packet walk
			// salvaged never reached the image.
			rep.TotalPackets += dmg.totalPackets
			rep.LostPackets += dmg.totalPackets
			rep.TotalBlocks += dmg.totalBlocks
			rep.LostBlocks += dmg.totalBlocks
			rep.Resyncs += dmg.resyncs
			if dmg.truncated {
				rep.Truncated = true
			}
			t := TileDamage{
				Index: i, Truncated: dmg.truncated,
				TotalPackets: dmg.totalPackets, LostPackets: dmg.totalPackets,
				TotalBlocks: dmg.totalBlocks, Resyncs: dmg.resyncs,
				Region: Rect{X0: r.X0, Y0: r.Y0, W: r.W, H: r.H},
			}
			var fe *FaultError
			if errors.As(terr, &fe) {
				t.Faults = append(t.Faults, FaultRef{Stage: fe.Stage, Lane: fe.Lane, Job: fe.Job})
			}
			rep.Notes = append(rep.Notes, fmt.Sprintf("tile %d concealed: %v", i, terr))
			rep.Tiles = append(rep.Tiles, t)
			continue
		}
		rep.TotalPackets += dmg.totalPackets
		rep.LostPackets += dmg.lostPackets
		rep.TotalBlocks += dmg.totalBlocks
		rep.LostBlocks += len(dmg.lost)
		rep.Resyncs += dmg.resyncs
		rep.SalvagedBytes += dmg.salvaged
		if dmg.truncated {
			rep.Truncated = true
		}
		if !dmg.damaged() {
			continue
		}
		t := TileDamage{
			Index: i, Truncated: dmg.truncated,
			TotalPackets: dmg.totalPackets, LostPackets: dmg.lostPackets,
			TotalBlocks: dmg.totalBlocks, Resyncs: dmg.resyncs,
			LostBlocks: dmg.lost, Faults: dmg.faults,
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
			t.Region = Rect{X0: r.X0, Y0: r.Y0, W: r.W, H: r.H}
		}
		rep.Tiles = append(rep.Tiles, t)
	}
	rep.Complete = rep.HeaderOK && !rep.Truncated && rep.Resyncs == 0 &&
		rep.MissingTiles == 0 && rep.LostPackets == 0 && rep.LostBlocks == 0 &&
		len(rep.Tiles) == 0 && len(rep.Notes) == 0
	op.rec.Add(obs.CtrResyncs, int64(rep.Resyncs))
	op.rec.Add(obs.CtrConcealedBlocks, int64(rep.LostBlocks))
	return out, rep, nil
}
