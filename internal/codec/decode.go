package codec

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"j2kcell/internal/codestream"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/jp2"
	"j2kcell/internal/mct"
	"j2kcell/internal/obs"
	"j2kcell/internal/quant"
	"j2kcell/internal/t1"
	"j2kcell/internal/t2"
)

// Decode reconstructs an image from a codestream produced by Encode
// (or by the parallel encoders, whose output is byte-identical).
func Decode(data []byte) (*imgmodel.Image, error) {
	return DecodeWith(data, DecodeOptions{})
}

// DecodeOptions selects progressive decoding subsets.
type DecodeOptions struct {
	// MaxLayers decodes only the first n quality layers (0 = all):
	// quality-progressive reconstruction at a lower rate.
	MaxLayers int
	// DiscardLevels drops the finest n resolution levels (0 = full
	// size): resolution-progressive reconstruction of a
	// ceil(w/2^n) × ceil(h/2^n) image without decoding the fine bands.
	DiscardLevels int
	// Region, when non-zero, decodes only the code blocks whose wavelet
	// support influences the given image window and returns just that
	// window — JPEG2000's random spatial access. Tier-1, the dominant
	// decode cost, is skipped for every other block. Not combinable
	// with DiscardLevels.
	Region Rect
	// Workers > 1 runs the full inverse chain — Tier-1 block decoding,
	// dequantization, the multi-level inverse DWT and the inverse
	// MCT/level shift — across a goroutine pool, draining the same
	// atomic work queue the encoder's stages use. Output is
	// bit-identical to the serial decode for every worker count.
	Workers int
	// Limits bounds what the main header may declare (dimensions,
	// components, levels, tiles, total pixel budget), enforced before
	// any plane or tile table is allocated. Nil applies DefaultLimits;
	// point at a zero Limits{} to disable limiting.
	Limits *Limits
	// BestEffort decodes damaged streams as far as possible instead of
	// failing on the first error: detection failures discard only the
	// affected code block, packet, or tile-part (concealed as zero
	// coefficients), and the decode resynchronizes on SOP/SOT markers.
	// DecodeWithOptions then never reports stream damage as an error;
	// use DecodeResilient to also receive the DamageReport saying what
	// was lost.
	BestEffort bool
}

// limits resolves the effective header limits.
func (d DecodeOptions) limits() Limits {
	if d.Limits != nil {
		return *d.Limits
	}
	return DefaultLimits()
}

// sopSeqWindow bounds how far ahead of the expected packet index a
// candidate SOP's Nsop may point and still be accepted as genuine. The
// FF 91 00 04 prefix is only four bytes, so packet bodies produce fake
// candidates at random; requiring the 16-bit sequence number to land in
// a small forward window rejects them (a fake passes with probability
// window/2^16 per candidate) while still resyncing across long damaged
// runs of packets.
const sopSeqWindow = 512

// findSOP scans body from `from` for an SOP marker whose Nsop falls in
// [expect, expect+sopSeqWindow) mod 2^16 and returns its offset and the
// absolute packet index it names (>= expect). Returns (-1, 0) when no
// acceptable marker remains.
func findSOP(body []byte, from, expect int) (int, int) {
	for i := from; i+6 <= len(body); i++ {
		if body[i] != 0xFF || body[i+1] != 0x91 || body[i+2] != 0x00 || body[i+3] != 0x04 {
			continue
		}
		seq := int(body[i+4])<<8 | int(body[i+5])
		if d := (seq - expect) & 0xFFFF; d < sopSeqWindow {
			return i, expect + d
		}
	}
	return -1, 0
}

// regionSet reports whether a window was requested.
func (d DecodeOptions) regionSet() bool { return d.Region.W > 0 && d.Region.H > 0 }

// regionMargin is the per-side expansion, in band coordinates, that
// guarantees every coefficient whose synthesis support touches the
// window is decoded: each inverse lifting level widens dependence by at
// most two coefficients per side (9/7), and the geometric sum of the
// halved propagation is bounded by 4; one extra guards rounding.
const regionMargin = 5

// bandWindow maps an image-space window to the band-coordinate rect
// whose coefficients can influence it, for a band at the given level.
func bandWindow(r Rect, level int) Rect {
	x0 := (r.X0 >> uint(level)) - regionMargin
	y0 := (r.Y0 >> uint(level)) - regionMargin
	x1 := ((r.X0 + r.W - 1) >> uint(level)) + regionMargin
	y1 := ((r.Y0 + r.H - 1) >> uint(level)) + regionMargin
	return Rect{X0: x0, Y0: y0, W: x1 - x0 + 1, H: y1 - y0 + 1}
}

func rectsIntersect(a, b Rect) bool {
	return a.X0 < b.X0+b.W && b.X0 < a.X0+a.W && a.Y0 < b.Y0+b.H && b.Y0 < a.Y0+a.H
}

// blockAcc accumulates one code block's contributions across layers.
type blockAcc struct {
	zbp      int
	passes   int
	segLens  []int
	data     []byte
	included bool
}

// DecodeWith reconstructs an image, optionally truncating the quality
// or resolution progression.
func DecodeWith(data []byte, dopt DecodeOptions) (*imgmodel.Image, error) {
	return DecodeWithContext(context.Background(), data, dopt)
}

// DecodeContext is Decode bound to a context: cancellation stops the
// decode between packets and Tier-1 block jobs and returns ctx.Err()
// unwrapped.
func DecodeContext(ctx context.Context, data []byte) (*imgmodel.Image, error) {
	return DecodeWithContext(ctx, data, DecodeOptions{})
}

// DecodeWithContext is DecodeWith bound to a context. Malformed or
// limit-exceeding input surfaces as *FormatError, a contained worker
// panic as *FaultError, and cancellation as ctx.Err() unwrapped.
func DecodeWithContext(ctx context.Context, data []byte, dopt DecodeOptions) (img *imgmodel.Image, err error) {
	if dopt.BestEffort {
		// The resilient path carries its own SLO envelope, admission and
		// fault containment; stream damage lands in the (discarded here)
		// report, never in err.
		img, _, err := DecodeResilientContext(ctx, data, dopt)
		return img, err
	}
	// The operation class (lossless/tiled/HT bits) is only known once
	// the main header parses, so it is latched below.
	ctx, op := beginOp(ctx, "decode")
	defer op.end(&err)
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	// Multi-worker decodes hold one shared-scheduler slot from header
	// parse to the last inverse stage.
	if _, aerr := op.admit(ctx, dopt.Workers, obs.StageDecode); aerr != nil {
		return nil, aerr
	}
	// Work spans go on a leased lane, as the stage pipelines' do, so a
	// one-worker decode reports one track.
	ln := op.rec.Acquire()
	sp := ln.Begin(obs.StageParse, 0, 0)
	h, bodies, err := parseStream(data, dopt.limits())
	sp.End()
	ln.Release()
	if err != nil {
		return nil, formatErr(err)
	}
	if dopt.regionSet() {
		if dopt.DiscardLevels != 0 {
			return nil, fmt.Errorf("codec: Region cannot be combined with DiscardLevels")
		}
		r := dopt.Region
		if r.X0 < 0 || r.Y0 < 0 || r.X0+r.W > h.W || r.Y0+r.H > h.H {
			return nil, fmt.Errorf("codec: region %+v outside %dx%d image", r, h.W, h.H)
		}
	}
	tiled := len(bodies) > 1 || h.TileW < h.W || h.TileH < h.H
	op.classify(obs.ClassOf(true, !h.Lossless, tiled, h.HT))
	if tiled {
		return decodeTiled(ctx, h, bodies, dopt)
	}
	tile, err := decodeTile(ctx, h, h.W, h.H, bodies[0], dopt, nil)
	if err != nil || !dopt.regionSet() {
		return tile, err
	}
	r := dopt.Region
	return tile.SubImage(r.X0, r.Y0, r.W, r.H), nil
}

// parseStream unwraps a JP2 container if present and parses the main
// header and tile-parts, enforcing the header limits.
func parseStream(data []byte, lim Limits) (*codestream.Header, [][]byte, error) {
	if jp2.IsJP2(data) {
		_, cs, err := jp2.Unwrap(data)
		if err != nil {
			return nil, nil, err
		}
		data = cs
	}
	return codestream.DecodeTilesLimits(data, lim)
}

// decodeTile reconstructs one tile of tw×th samples from its packet
// body. The pipeline bound to ctx carries both the Tier-1 worker pool
// and the cancellation checks of the packet-parse loop. A non-nil dmg
// switches the tile to best-effort mode: packet parse failures, Tier-1
// detection failures and contained worker faults are demoted to
// localized concealment recorded in dmg instead of failing the tile.
func decodeTile(ctx context.Context, h *codestream.Header, tw, th int, body []byte, dopt DecodeOptions, dmg *tileDamage) (*imgmodel.Image, error) {
	p := NewPipelineContext(ctx, dopt.Workers)
	defer p.Close()
	bands := dwt.Layout(tw, th, h.Levels)
	mode := t1.ModeSingle
	style := t2.SegSingle
	switch {
	case h.HT:
		// Both HT variants parse identically: per-pass segment lengths
		// in the packet header, mode dispatch inside t1.Decode.
		mode, style = t1.ModeHT, t2.SegTermAll
	case h.TermAll:
		mode, style = t1.ModeTermAll, t2.SegTermAll
	}
	if h.SegSym {
		// The encoder closed every cleanup pass with the 1010 sentinel;
		// the MQ decoder must consume (and verify) it to stay in sync.
		mode = mode.WithSegSym()
	}
	maxLayers := h.Layers
	if dopt.MaxLayers > 0 && dopt.MaxLayers < maxLayers {
		maxLayers = dopt.MaxLayers
	}
	discard := dopt.DiscardLevels
	if discard < 0 {
		discard = 0
	}
	if discard > h.Levels {
		discard = h.Levels
	}
	keepRes := h.Levels - discard // decode resolutions 0..keepRes

	// Parse all packets in progression order, accumulating per-block state.
	// Precinct coding state persists across layers per (comp, band).
	type key struct{ c, b int }
	precincts := map[key]*t2.Precinct{}
	accs := map[key][]*blockAcc{}
	for c := 0; c < h.NComp; c++ {
		for bi, band := range bands {
			gw := (band.W + h.CBW - 1) / h.CBW
			gh := (band.H + h.CBH - 1) / h.CBH
			precincts[key{c, bi}] = t2.NewPrecinct(gw, gh)
			accs[key{c, bi}] = make([]*blockAcc, gw*gh)
		}
	}

	order := PacketOrder(Progression(h.Progression), h.Layers, h.Levels, h.NComp)
	if dmg != nil {
		dmg.totalPackets = len(order)
	}
	// The packet-parse loop is the decode side of Tier-2; it runs on a
	// lane of its own because a tiled decode calls decodeTile from
	// inside a tile job.
	t2ln := p.rec.Acquire()
	t2sp := t2ln.Begin(obs.StageT2, 0, 0)
	off := 0
	skipTo := 0 // packets below this index were lost to a resync jump
	for pi := 0; pi < len(order); pi++ {
		if p.stopped() {
			t2sp.End()
			t2ln.Release()
			return nil, p.Err()
		}
		if pi < skipTo {
			// A resync landed on a later packet's SOP: this packet's
			// data never arrived (or was unparsable); its blocks simply
			// get no contribution from this layer.
			if dmg != nil {
				dmg.lostPackets++
			}
			continue
		}
		l, r, c := order[pi][0], order[pi][1], order[pi][2]
		resBands := ResBands(h.Levels, r)
		var pkt []*t2.Precinct
		for _, bi := range resBands {
			pkt = append(pkt, precincts[key{c, bi}])
		}
		if h.SOPMarkers {
			// Each packet is prefixed FF 91 00 04 seq16. The sequence
			// number is validated against the expected packet index, so
			// a fake FF 91 inside packet-body data cannot hijack the
			// resync (see findSOP).
			at, idx := findSOP(body, off, pi)
			if at < 0 {
				// No acceptable marker remains: the tail is gone.
				if dmg != nil {
					dmg.lostPackets += len(order) - pi
					dmg.truncated = true
				}
				break
			}
			if idx > pi {
				// The stream jumps ahead: packets pi..idx-1 are missing.
				// Leave the marker in place and let the loop skip to it
				// so precinct state stays aligned with packet indices.
				skipTo = idx
				if dmg != nil {
					dmg.resyncs++
				}
				pi--
				continue
			}
			off = at + 6
		}
		n, err := t2.DecodePacketEPH(body[off:], pkt, l, style, h.SOPMarkers)
		if err != nil {
			// Damaged packet: drop its contributions and clear any
			// partially parsed state.
			for _, p := range pkt {
				for i := range p.Blocks {
					if p.Blocks[i] != nil {
						p.Blocks[i].NumPasses = 0
					}
				}
			}
			if h.SOPMarkers {
				// Resync: scan for the next packet's marker (this one's
				// SOP is already consumed, so expect pi+1 onward).
				if dmg != nil {
					dmg.lostPackets++
					dmg.resyncs++
				}
				if at, _ := findSOP(body, off, pi+1); at >= 0 {
					off = at
				} else {
					off = len(body)
				}
				continue
			}
			if dmg != nil {
				// Without resync markers the packet boundary is lost, so
				// everything from here on is undecodable — but every
				// fully received packet before it is already banked.
				dmg.lostPackets += len(order) - pi
				dmg.truncated = true
				break
			}
			t2sp.End()
			t2ln.Release()
			return nil, formatErrf(err, "packet l=%d r=%d c=%d", l, r, c)
		}
		off += n
		if dmg != nil {
			dmg.salvaged += int64(n)
			if h.SOPMarkers {
				dmg.salvaged += 6
			}
		}
		if l >= maxLayers || r > keepRes {
			continue // parsed for position, contents discarded
		}
		for _, bi := range resBands {
			p := precincts[key{c, bi}]
			acc := accs[key{c, bi}]
			for i, blk := range p.Blocks {
				if blk == nil || blk.NumPasses == 0 {
					continue
				}
				a := acc[i]
				if a == nil {
					a = &blockAcc{zbp: blk.ZeroBP, included: true}
					acc[i] = a
				}
				a.passes += blk.NumPasses
				for _, s := range blk.Segments {
					a.segLens = append(a.segLens, s.Len)
				}
				a.data = append(a.data, blk.Data...)
			}
		}
	}
	t2sp.End()
	t2ln.Release()

	// Tier-1 decode every accumulated block into pooled coefficient
	// planes, skipping blocks whose synthesis support cannot touch a
	// requested region. Pooled planes arrive dirty, so a stripe-parallel
	// zero stage runs first: regions no included block covers must read
	// as zero coefficients. Blocks write disjoint plane regions, so they
	// decode independently — serially or across the worker pool.
	planes := make([]*imgmodel.Plane, h.NComp)
	for c := range planes {
		planes[c] = imgmodel.GetPlane(tw, th)
	}
	p.ZeroPlanes(planes)
	var tasks []blockTask
	for c := 0; c < h.NComp; c++ {
		for bi, band := range bands {
			if band.W == 0 || band.H == 0 {
				continue
			}
			var want Rect
			if dopt.regionSet() {
				want = bandWindow(dopt.Region, band.Level)
			}
			gw := (band.W + h.CBW - 1) / h.CBW
			for i, a := range accs[key{c, bi}] {
				if a == nil {
					continue
				}
				gx, gy := i%gw, i/gw
				if dopt.regionSet() {
					blk := Rect{X0: gx * h.CBW, Y0: gy * h.CBH, W: h.CBW, H: h.CBH}
					if !rectsIntersect(blk, want) {
						continue
					}
				}
				bw := h.CBW
				if (gx+1)*h.CBW > band.W {
					bw = band.W - gx*h.CBW
				}
				bh := h.CBH
				if (gy+1)*h.CBH > band.H {
					bh = band.H - gy*h.CBH
				}
				// A corrupt zero-bitplane count can exceed the band's M_b;
				// clamp so Tier-1 sees a sane (empty) block instead of a
				// negative bit-plane count.
				numBPS := h.Mb[c][bi] - a.zbp
				if numBPS < 0 {
					numBPS = 0
				}
				tasks = append(tasks, blockTask{
					acc: a, orient: band.Orient, numBPS: numBPS,
					x0: band.X0 + gx*h.CBW, y0: band.Y0 + gy*h.CBH,
					bw: bw, bh: bh, plane: planes[c], c: c, bi: bi, gx: gx, gy: gy,
				})
			}
		}
	}
	decodeOne := func(tk blockTask) error {
		pl := tk.plane
		err := t1.Decode(pl.Data[tk.y0*pl.Stride+tk.x0:], tk.bw, tk.bh, pl.Stride,
			tk.orient, mode, tk.numBPS, tk.acc.passes, tk.acc.data, tk.acc.segLens)
		if err != nil {
			return formatErrf(err, "block c=%d band=%d (%d,%d)", tk.c, tk.bi, tk.gx, tk.gy)
		}
		return nil
	}
	// Tier-1 decoding drains the same atomic work queue as the encode
	// pipeline, but in dynamically-sized jobs: partitions built from the
	// per-block coded byte counts T2 parsing just measured, so cheap
	// blocks coalesce and expensive blocks run alone (see
	// partitionDecodeTasks). Partitions cover disjoint task ranges and
	// blocks write disjoint plane regions, so the split never changes
	// output. A fault or cancellation outranks the per-block parse
	// errors (partitions after the stop never ran, so their slots are
	// nil, not failures); partitions are contiguous in task order, so
	// the first non-nil slot is still the earliest failing block.
	parts := partitionDecodeTasks(p.rec, tasks, p.workers, decodeCostFor(mode))
	st := obs.StageT1
	if mode.IsHT() {
		st = obs.StageT1HT
	}
	if dmg != nil {
		dmg.totalBlocks = len(tasks)
		if err := decodeBlocksBestEffort(p, st, h, bands, tw, th, tasks, parts, decodeOne, dmg); err != nil {
			putPlanes(planes)
			return nil, err
		}
	} else {
		errs := make([]error, len(parts))
		p.run(st, 0, len(parts), func(i int) {
			for t := parts[i].lo; t < parts[i].hi; t++ {
				if err := decodeOne(tasks[t]); err != nil {
					errs[i] = err
					return
				}
			}
		})
		if perr := p.Err(); perr != nil {
			putPlanes(planes)
			return nil, perr
		}
		for _, err := range errs {
			if err != nil {
				putPlanes(planes)
				return nil, err
			}
		}
	}

	if discard == 0 {
		return reconstruct(p, h, bands, planes, tw, th)
	}
	img, err := reconstructReduced(h, bands, planes, tw, th, discard)
	putPlanes(planes)
	return img, err
}

// decodeBlocksBestEffort drains the Tier-1 partitions with per-block
// damage demotion. Two failure classes are contained here:
//
//   - Detection failures (MQ segmentation-symbol mismatch, HT trailer
//     inconsistency, malformed segments): decodeOne returns an error,
//     the worker conceals that block as zero coefficients, records the
//     loss, and the partition continues with its next block.
//   - Worker faults (a panic inside Tier-1, or an injected fault): the
//     pipeline's first-error latch holds a *FaultError naming the
//     partition; the coordinator conceals the single block that
//     partition was positioned on, clears the latch, and reruns — done
//     partitions exit immediately, so only remaining work repeats.
//
// Context cancellation and non-fault pipeline errors still fail the
// tile. Partitions own disjoint task ranges writing disjoint plane
// regions, so concealment never races with live decoding.
func decodeBlocksBestEffort(p *Pipeline, st obs.Stage, h *codestream.Header, bands []dwt.Band, tw, th int,
	tasks []blockTask, parts []decodePart, decodeOne func(blockTask) error, dmg *tileDamage) error {
	conceal := func(t int, cause string) {
		tk := tasks[t]
		pl := tk.plane
		for y := tk.y0; y < tk.y0+tk.bh; y++ {
			row := pl.Data[y*pl.Stride+tk.x0 : y*pl.Stride+tk.x0+tk.bw]
			for i := range row {
				row[i] = 0
			}
		}
		dmg.lost = append(dmg.lost, BlockLoss{
			Comp: tk.c, Band: tk.bi, GX: tk.gx, GY: tk.gy,
			Region: lostRegion(bands[tk.bi].Level, tk.gx, tk.gy, h.CBW, h.CBH, tw, th),
			Cause:  cause,
		})
	}
	// next[i] is partition i's progress cursor. Within one run only the
	// worker holding partition i advances it, and run's completion
	// orders every access across reruns.
	next := make([]int, len(parts))
	for i := range parts {
		next[i] = parts[i].lo
	}
	var mu sync.Mutex // serializes loss recording across workers
	// Each rerun either finishes or handles one fault, and a fault
	// demotes at most one block, so tasks+parts bounds any terminating
	// sequence; the slack absorbs faults that land on done partitions.
	for attempt := 0; attempt <= len(tasks)+len(parts)+4; attempt++ {
		p.run(st, 0, len(parts), func(i int) {
			for next[i] < parts[i].hi {
				t := next[i]
				if err := decodeOne(tasks[t]); err != nil {
					mu.Lock()
					conceal(t, err.Error())
					mu.Unlock()
				}
				next[i] = t + 1
			}
		})
		perr := p.Err()
		if perr == nil {
			return nil
		}
		var fe *FaultError
		if !errors.As(perr, &fe) || p.Context().Err() != nil {
			return perr // cancellation or a non-fault pipeline error
		}
		// An injected fault fires before the job body and a panic fires
		// inside it; either way the victim is the block the faulted
		// partition is positioned on.
		if j := fe.Job; j >= 0 && j < len(parts) && next[j] < parts[j].hi {
			conceal(next[j], fmt.Sprintf("contained fault in stage %s", fe.Stage))
			next[j]++
		}
		dmg.faults = append(dmg.faults, FaultRef{Stage: fe.Stage, Lane: fe.Lane, Job: fe.Job})
		p.clearFault()
	}
	// A fault storm outlasted the demotion budget: abandon the rest.
	for i := range parts {
		for ; next[i] < parts[i].hi; next[i]++ {
			conceal(next[i], "abandoned after repeated faults")
		}
	}
	p.clearFault()
	return nil
}

// blockTask is one accumulated code block awaiting Tier-1 decode.
type blockTask struct {
	acc    *blockAcc
	orient dwt.Orient
	numBPS int
	x0, y0 int
	bw, bh int
	plane  *imgmodel.Plane
	c, bi  int
	gx, gy int
}

// putPlanes recycles a tile's pooled coefficient planes. Callers only
// release after the pipeline's run calls have returned, so no worker
// still references the backing arrays.
func putPlanes(planes []*imgmodel.Plane) {
	for _, pl := range planes {
		imgmodel.PutPlane(pl)
	}
}

// reconstruct runs the full-size inverse transforms for one tile
// through the stage pipeline: dequantization, the multi-level inverse
// DWT and the fused inverse MCT + clamp drain the same work queue
// Tier-1 did, and the pooled planes are recycled as each stage finishes
// with them. Bit-identical to running dwt.Inverse53/97 and the serial
// MCT helpers per plane.
func reconstruct(p *Pipeline, h *codestream.Header, bands []dwt.Band, planes []*imgmodel.Plane, tw, th int) (*imgmodel.Image, error) {
	img := imgmodel.NewImage(tw, th, h.NComp, h.Depth)
	if h.Lossless {
		p.IDWT53(planes, h.Levels, 0)
		p.InverseMCTInt(img, planes, h)
		putPlanes(planes)
		if err := p.Err(); err != nil {
			return nil, err
		}
		return img, nil
	}
	fplanes := p.Dequantize(h, bands, planes)
	putPlanes(planes)
	p.IDWT97(fplanes, h.Levels, 0)
	p.InverseMCTFloat(img, fplanes, h)
	for _, fp := range fplanes {
		imgmodel.PutFPlane(fp)
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return img, nil
}

// reconstructReduced inverse-transforms only the kept resolutions: the
// LL plane of the discarded levels becomes the output image.
func reconstructReduced(h *codestream.Header, bands []dwt.Band, planes []*imgmodel.Plane, tw, th, discard int) (*imgmodel.Image, error) {
	rw, rh := tw, th
	for i := 0; i < discard; i++ {
		rw, rh = (rw+1)/2, (rh+1)/2
	}
	img := imgmodel.NewImage(rw, rh, h.NComp, h.Depth)
	if h.Lossless {
		for c, p := range planes {
			// Invert levels discard..Levels-1 only, then crop the LL.
			invertUpper53(p, tw, th, h.Levels, discard)
			for y := 0; y < rh; y++ {
				copy(img.Comps[c].Row(y), p.Row(y)[:rw])
			}
		}
		inverseMCTInt(img, h)
		return img, nil
	}
	fplanes := dequantize(h, bands, planes, tw, th, discard)
	red := make([]*imgmodel.FPlane, len(fplanes))
	for c, fp := range fplanes {
		invertUpper97(fp, tw, th, h.Levels, discard)
		r := imgmodel.NewFPlane(rw, rh)
		for y := 0; y < rh; y++ {
			copy(r.Row(y), fp.Row(y)[:rw])
		}
		red[c] = r
	}
	inverseMCTFloat(img, red, h)
	return img, nil
}

// invertUpper53 undoes the coarsest levels only (levels-1 .. discard),
// leaving the top-left region holding the reduced-resolution image.
func invertUpper53(p *imgmodel.Plane, w, h, levels, discard int) {
	dwt.InverseLevels53(p.Data, w, h, p.Stride, levels, discard)
}

// invertUpper97 is the float analogue.
func invertUpper97(p *imgmodel.FPlane, w, h, levels, discard int) {
	dwt.InverseLevels97(p.Data, w, h, p.Stride, levels, discard)
}

// dequantize converts quantizer indices back to coefficients for all
// bands at resolutions surviving `discard` (others stay zero and are
// never read).
func dequantize(h *codestream.Header, bands []dwt.Band, planes []*imgmodel.Plane, w, hh int, _ ...int) []*imgmodel.FPlane {
	fplanes := make([]*imgmodel.FPlane, len(planes))
	for c, p := range planes {
		fp := imgmodel.NewFPlane(w, hh)
		for _, b := range bands {
			if b.W == 0 || b.H == 0 {
				continue
			}
			delta := float32(quant.StepFor(h.BaseDelta, h.Levels, b.Orient, b.Level))
			for y := b.Y0; y < b.Y0+b.H; y++ {
				quant.DequantizeRow(fp.Data[y*fp.Stride+b.X0:][:b.W], p.Data[y*p.Stride+b.X0:][:b.W], delta)
			}
		}
		fplanes[c] = fp
	}
	return fplanes
}

// inverseMCTInt finishes the reversible path: inverse RCT or unshift.
func inverseMCTInt(img *imgmodel.Image, h *codestream.Header) {
	for y := 0; y < img.H; y++ {
		if h.UseMCT && h.NComp == 3 {
			mct.InverseRCTRow(img.Comps[0].Row(y), img.Comps[1].Row(y), img.Comps[2].Row(y), h.Depth)
		} else {
			for c := range img.Comps {
				mct.UnshiftRow(img.Comps[c].Row(y), h.Depth)
			}
		}
	}
	clampImage(img, h.Depth)
}

// inverseMCTFloat finishes the irreversible path: inverse ICT (or
// unshift), rounding and clamping.
func inverseMCTFloat(img *imgmodel.Image, fplanes []*imgmodel.FPlane, h *codestream.Header) {
	off := float32(int32(1) << (h.Depth - 1))
	for y := 0; y < img.H; y++ {
		if h.UseMCT && h.NComp == 3 {
			mct.InverseICTRow(fplanes[0].Row(y), fplanes[1].Row(y), fplanes[2].Row(y),
				img.Comps[0].Row(y), img.Comps[1].Row(y), img.Comps[2].Row(y), h.Depth)
		} else {
			for c := range img.Comps {
				src, dst := fplanes[c].Row(y), img.Comps[c].Row(y)
				for i := range src {
					v := src[i] + off
					if v >= 0 {
						dst[i] = int32(v + 0.5)
					} else {
						dst[i] = -int32(-v + 0.5)
					}
				}
			}
		}
	}
	clampImage(img, h.Depth)
}

func clampImage(img *imgmodel.Image, depth int) {
	maxv := int32(1)<<depth - 1
	for _, p := range img.Comps {
		for y := 0; y < p.H; y++ {
			row := p.Row(y)
			for i, v := range row {
				if v < 0 {
					row[i] = 0
				} else if v > maxv {
					row[i] = maxv
				}
			}
		}
	}
}
