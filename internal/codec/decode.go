package codec

import (
	"context"
	"fmt"
	"sync"

	"j2kcell/internal/codestream"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/jp2"
	"j2kcell/internal/obs"
	"j2kcell/internal/quant"
	"j2kcell/internal/t1"
	"j2kcell/internal/t2"
)

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
	// decode cost, is skipped for every other block, so damage in those
	// blocks goes unseen. Strict and best-effort decodes honour it
	// alike. It must lie inside the image and is not combinable with
	// DiscardLevels: a strict decode fails on either, a best-effort one
	// notes it and decodes the full image.
	Region Rect
	// Workers > 1 runs the full inverse chain — Tier-1 block decoding
	// (which writes final coefficients: dequantized on the lossy path,
	// zero where a block has no data), the multi-level inverse DWT and
	// the inverse MCT/level shift — across a goroutine pool, draining
	// the same atomic work queue the encoder's stages use. Output is
	// bit-identical to the serial decode for every worker count.
	Workers int
	// Limits bounds what the main header may declare (dimensions,
	// components, levels, tiles, total pixel budget), enforced before
	// any plane or tile table is allocated. Nil applies DefaultLimits;
	// point at a zero Limits{} to disable limiting.
	Limits *Limits
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
	zbp     int
	passes  int
	segLens []int
	data    []byte // the contributed bytes; aliases the tile body until a second layer adds to them
}

// Decode reconstructs an image from a codestream produced by Encode,
// or the subset of it dopt selects: fewer quality layers, fewer
// resolution levels, or a spatial Region. It is the best-effort decode
// that demands a Complete damage report: the stream decodes through
// the one driver DecodeResilient uses, and unless that records no
// damage at all Decode returns the first recorded cause instead of the
// image — stream damage or an over-limit header as a *FormatError, an
// invalid option as the error its check produced, a contained worker
// fault as its *FaultError. Cancellation, checked between packets and
// stage jobs, returns ctx.Err() unwrapped.
//
// Every stream is a tile grid, an untiled one a grid of one tile. A
// one-tile grid decodes on the operation's pipeline at dopt.Workers
// and its tile image is the result; a larger grid decodes one tile per
// job of the shared work queue, each tile's stages inline, into the
// output image.
func Decode(ctx context.Context, data []byte, dopt DecodeOptions) (img *imgmodel.Image, err error) {
	ctx, op := beginOp(ctx, "decode")
	defer op.end(&err)
	img, rep, cause, err := decodeStream(ctx, &op, data, dopt)
	if err == nil && !rep.Complete {
		return nil, cause
	}
	return img, err
}

// parseStream unwraps a JP2 container if present and parses the main
// header and tile-parts with the salvaging parser, enforcing the header
// limits. The error, a *FormatError, means the main header is unusable.
func parseStream(data []byte, lim Limits) (*codestream.Header, [][]byte, *codestream.SalvageInfo, error) {
	if jp2.IsJP2(data) {
		_, cs, err := jp2.Unwrap(data)
		if err != nil {
			return nil, nil, nil, formatErrf(err, "jp2 container")
		}
		data = cs
	}
	h, bodies, info, err := codestream.DecodeTilesSalvage(data, lim)
	if err != nil {
		return nil, nil, nil, formatErrf(err, "main header")
	}
	return h, bodies, info, nil
}

// parseTile is the decode side of Tier-2 for one tile: it parses every
// packet of body in progression order and accumulates, per code block
// of bands, the data of layers below maxLayers and resolutions up to
// keepRes — with a non-empty tile-local region, only for the blocks
// whose wavelet support reaches it. It also returns the layout of
// every packet it parsed, in stream order. A damaged packet loses its
// contributions and is recorded in dmg: with SOP markers the walk
// resyncs on a later packet's marker, without them the packet boundary
// is lost and the walk ends, keeping every packet before it. The error
// is non-nil only when the pipeline stopped. The accumulators are
// indexed c·(3·Levels+1) + band, each a raster-order grid of the
// band's blocks, nil where a block received nothing.
func parseTile(p *Pipeline, h *codestream.Header, bands []dwt.Band, body []byte, maxLayers, keepRes int, region Rect, dmg *tileDamage) ([][]*blockAcc, []PacketInfo, error) {
	style := t2.SegSingle
	if headerMode(h).PerPass() {
		style = t2.SegTermAll
	}
	// Precinct coding state persists across layers per (comp, band).
	// The accumulator grids share one pointer array, the accumulators
	// one slab, and their segment lengths one growing array.
	nb := len(bands)
	precincts := make([]*t2.Precinct, h.NComp*nb)
	accs := make([][]*blockAcc, h.NComp*nb)
	nblocks := 0
	for _, band := range bands {
		nblocks += ceilDiv(band.W, h.CBW) * ceilDiv(band.H, h.CBH)
	}
	grid := make([]*blockAcc, h.NComp*nblocks)
	slab := make([]blockAcc, 0, h.NComp*nblocks)
	var lens []int
	for k := range precincts {
		band := bands[k%nb]
		gw, gh := ceilDiv(band.W, h.CBW), ceilDiv(band.H, h.CBH)
		precincts[k] = t2.NewPrecinct(gw, gh)
		accs[k], grid = grid[:gw*gh:gw*gh], grid[gw*gh:]
	}

	order := PacketOrder(Progression(h.Progression), h.Layers, h.Levels, h.NComp)
	dmg.totalPackets = len(order)
	// The packet-parse loop runs on a lane of its own because a tiled
	// decode calls decodeTile from inside a tile job.
	t2ln := p.rec.Acquire()
	defer t2ln.Release()
	t2sp := t2ln.Begin(obs.StageT2, 0, 0)
	defer t2sp.End()
	packets := make([]PacketInfo, 0, len(order))
	off := 0
	skipTo := 0 // packets below this index were lost to a resync jump
	for pi := 0; pi < len(order); pi++ {
		if p.stopped() {
			return nil, nil, p.Err()
		}
		if pi < skipTo {
			// A resync landed on a later packet's SOP: this packet's
			// data never arrived (or was unparsable); its blocks simply
			// get no contribution from this layer.
			dmg.lostPackets++
			continue
		}
		l, r, c := order[pi][0], order[pi][1], order[pi][2]
		resBands := ResBands(h.Levels, r)
		var pkt []*t2.Precinct
		for _, bi := range resBands {
			pkt = append(pkt, precincts[c*nb+bi])
		}
		start := off
		if h.SOPMarkers {
			// Each packet is prefixed FF 91 00 04 seq16. The sequence
			// number is validated against the expected packet index, so
			// a fake FF 91 inside packet-body data cannot hijack the
			// resync (see findSOP).
			at, idx := findSOP(body, off, pi)
			if at < 0 {
				// No acceptable marker remains: the tail is gone.
				dmg.lostPackets += len(order) - pi
				dmg.truncated = true
				dmg.fail(&FormatError{Msg: fmt.Sprintf("packet %d: no SOP marker", pi)})
				break
			}
			if idx > pi {
				// The stream jumps ahead: packets pi..idx-1 are missing.
				// Leave the marker in place and let the loop skip to it
				// so precinct state stays aligned with packet indices.
				skipTo = idx
				dmg.resyncs++
				dmg.fail(&FormatError{Msg: fmt.Sprintf("packets %d to %d missing", pi, idx-1)})
				pi--
				continue
			}
			start, off = at, at+6
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
			dmg.fail(formatErrf(err, "packet l=%d r=%d c=%d", l, r, c))
			if h.SOPMarkers {
				// Resync: scan for the next packet's marker (this one's
				// SOP is already consumed, so expect pi+1 onward).
				dmg.lostPackets++
				dmg.resyncs++
				if at, _ := findSOP(body, off, pi+1); at >= 0 {
					off = at
				} else {
					off = len(body)
				}
				continue
			}
			// Without resync markers the packet boundary is lost, so
			// everything from here on is undecodable — but every fully
			// received packet before it is already banked.
			dmg.lostPackets += len(order) - pi
			dmg.truncated = true
			break
		}
		off += n
		dmg.salvaged += int64(off - start)
		// A packet outside the decoded layers and resolutions is parsed
		// for position only; its contents are discarded.
		keep := l < maxLayers && r <= keepRes
		pk := PacketInfo{Layer: l, Res: r, Comp: c, Offset: start, Bytes: n}
		for k, pr := range pkt {
			acc := accs[c*nb+resBands[k]]
			var want Rect // the band's blocks reaching the region
			if region.W > 0 && region.H > 0 {
				want = bandWindow(region, bands[resBands[k]].Level)
			}
			for i, blk := range pr.Blocks {
				if blk == nil || blk.NumPasses == 0 {
					continue
				}
				pk.Blocks++
				pk.DataBytes += len(blk.Data)
				if !keep || want.W > 0 && !rectsIntersect(Rect{X0: i % pr.W * h.CBW, Y0: i / pr.W * h.CBH, W: h.CBW, H: h.CBH}, want) {
					continue
				}
				a := acc[i]
				if a == nil {
					slab = append(slab, blockAcc{zbp: blk.ZeroBP})
					a = &slab[len(slab)-1]
					acc[i] = a
				}
				a.passes += blk.NumPasses
				if a.segLens == nil {
					// As with the data: a later layer's append copies.
					n := len(lens)
					for _, s := range blk.Segments {
						lens = append(lens, s.Len)
					}
					a.segLens = lens[n:len(lens):len(lens)]
				} else {
					for _, s := range blk.Segments {
						a.segLens = append(a.segLens, s.Len)
					}
				}
				if a.data == nil {
					// A block's first contribution is read in place from
					// the body; the capacity limit makes a later layer's
					// append copy both into an array of their own instead
					// of writing over the body.
					a.data = blk.Data[:len(blk.Data):len(blk.Data)]
				} else {
					a.data = append(a.data, blk.Data...)
				}
			}
		}
		packets = append(packets, pk)
	}
	return accs, packets, nil
}

// headerMode is the Tier-1 mode a decoder reads from the COD flags of
// h. Both HT variants map to ModeHT; t1.Decode dispatches between
// them. With SegSym the encoder closed every cleanup pass with the
// 1010 sentinel, which the MQ decoder must consume (and verify) to
// stay in sync.
func headerMode(h *codestream.Header) t1.Mode {
	mode := t1.ModeSingle
	switch {
	case h.HT:
		mode = t1.ModeHT
	case h.TermAll:
		mode = t1.ModeTermAll
	}
	if h.SegSym {
		mode = mode.WithSegSym()
	}
	return mode
}

// decodeTile reconstructs one tile of tw×th samples from its packet
// body into dst, best effort: packet parse failures, Tier-1 detection
// failures and contained Tier-1 faults are demoted to localized
// concealment recorded in dmg. The pipeline bound to ctx carries both
// the Tier-1 worker pool and the cancellation checks of the
// packet-parse loop. dopt's DiscardLevels must already be resolved
// against the header, and its Region, if set, is tile-local. dst is
// the tile's window of the output image: the tile-local Region, or the
// whole tile at reduced scale. The error — cancellation, or a fault in
// an inverse stage — loses the tile whole, with dst possibly part
// written.
func decodeTile(ctx context.Context, h *codestream.Header, tw, th int, body []byte, dopt DecodeOptions, dmg *tileDamage, dst *imgmodel.Image) error {
	p := NewPipelineContext(ctx, dopt.Workers)
	bands := dwt.Layout(tw, th, h.Levels)
	mode := headerMode(h)
	maxLayers := h.Layers
	if dopt.MaxLayers > 0 && dopt.MaxLayers < maxLayers {
		maxLayers = dopt.MaxLayers
	}
	keepRes := h.Levels - dopt.DiscardLevels // decode resolutions 0..keepRes

	accs, _, err := parseTile(p, h, bands, body, maxLayers, keepRes, dopt.Region, dmg)
	if err != nil {
		return err
	}

	tasks, ndata := tileTasks(h, bands[:1+3*keepRes], accs)
	dmg.totalBlocks = ndata
	var win Rect // the part of the reconstruction dst takes
	if dopt.regionSet() {
		win = dopt.Region
	} else {
		win.W, win.H = dwt.LevelDims(tw, th, dopt.DiscardLevels)
	}
	st := tier1Stage(mode)
	if h.Lossless {
		co := getTileCoefs[int32](h, mode, tw, th)
		return co.decode(p, st, h, bands, tasks, dmg, dwt.Lifting53, p.InverseMCTInt, dopt.DiscardLevels, win, dst)
	}
	co := getTileCoefs[float32](h, mode, tw, th)
	return co.decode(p, st, h, bands, tasks, dmg, dwt.Lifting97, p.InverseMCTFloat, dopt.DiscardLevels, win, dst)
}

// decodeBlocksBestEffort drains the Tier-1 tasks through the same
// atomic work queue as the encode pipeline, one job per task, demoting
// damage to the loss of single blocks. Tasks write disjoint plane
// regions, so the claim order never changes output and concealment
// never races with live decoding. Two failure classes are contained here:
//
//   - Detection failures (MQ segmentation-symbol mismatch, HT trailer
//     inconsistency, malformed segments): the block's write returns an
//     error, and the worker conceals that block as zero coefficients
//     and records the loss.
//   - Worker faults (a panic inside Tier-1, or an injected fault):
//     runDemoting conceals the faulted task and reruns the stage.
//
// Concealing a hole re-runs its zero fill and records no loss: it had
// no data to lose. The cause recorded in dmg is the lowest-indexed
// task's, whichever worker met it. Context cancellation and non-fault
// pipeline errors still fail the tile.
func decodeBlocksBestEffort[T imgmodel.Sample](p *Pipeline, st obs.Stage, h *codestream.Header, bands []dwt.Band,
	co *tileCoefs[T], tasks []blockTask, dmg *tileDamage) error {
	tw, th := co.planes[0].W, co.planes[0].H
	// done[t] marks task t written or concealed. Within one run only the
	// worker holding job t sets it, and run's completion orders every
	// access across reruns.
	done := make([]bool, len(tasks))
	first, firstErr := 0, error(nil) // the lowest task with a cause
	defer func() { dmg.fail(firstErr) }()
	record := func(t int, err error) {
		if firstErr == nil || t < first {
			first, firstErr = t, err
		}
	}
	conceal := func(t int, err error, why string) {
		tk := &tasks[t]
		co.zero(tk)
		done[t] = true
		record(t, err)
		if tk.acc == nil {
			return
		}
		dmg.lost = append(dmg.lost, BlockLoss{
			Comp: tk.c, Band: tk.bi, GX: tk.gx, GY: tk.gy,
			Region: lostRegion(bands[tk.bi].Level, tk.gx, tk.gy, h.CBW, h.CBH, tw, th),
			Cause:  why,
		})
	}
	var mu sync.Mutex // serializes loss recording across workers
	storm, err := p.runDemoting(st, len(tasks), func(t int) {
		if done[t] {
			return
		}
		if err := co.write(&tasks[t]); err != nil {
			mu.Lock()
			conceal(t, err, err.Error())
			mu.Unlock()
		}
		done[t] = true
	}, func(fe *FaultError) {
		// An injected fault fires before the job body and a panic fires
		// inside it; either way the victim is the faulted job's task.
		if j := fe.Job; j >= 0 && j < len(tasks) && !done[j] {
			conceal(j, fe, fmt.Sprintf("contained fault in stage %s", fe.Stage))
		} else {
			record(j, fe)
		}
		dmg.faults = append(dmg.faults, FaultRef{Stage: fe.Stage, Lane: fe.Lane, Job: fe.Job})
	})
	if storm != nil {
		// A fault storm outlasted the demotion budget: abandon the rest.
		for t := range tasks {
			if !done[t] {
				conceal(t, storm, "abandoned after repeated faults")
			}
		}
	}
	return err
}

// blockTask is one Tier-1 decode task: an accumulated code block
// awaiting decode, or — with a nil acc — a hole, a rectangle of one
// band whose blocks carry no data the decode uses, to be zero-filled.
// A hole's c, bi, x0, y0, bw and bh locate it; gx, gy and numBPS are
// unused.
type blockTask struct {
	acc    *blockAcc
	orient dwt.Orient
	numBPS int
	delta  float32 // dequantization step (irreversible path)
	x0, y0 int
	bw, bh int
	c, bi  int
	gx, gy int
}

// tileTasks lists the Tier-1 tasks of one tile over the bands the
// decode keeps: the blocks with data first, in (component, band,
// raster) order, then the holes, each a run of adjacent holes along
// one row of a band's block grid. Holes stay one grid row high so a
// band with no data at all still spreads across workers.
// It also returns the number of data tasks.
func tileTasks(h *codestream.Header, bands []dwt.Band, accs [][]*blockAcc) ([]blockTask, int) {
	nb := 3*h.Levels + 1 // bands may be a prefix of the tile's layout
	// A band's blocks yield at most one task each, holes included, so
	// the holes join the tasks with no regrowth.
	n := 0
	for _, band := range bands {
		n += ceilDiv(band.W, h.CBW) * ceilDiv(band.H, h.CBH)
	}
	tasks := make([]blockTask, 0, n*h.NComp)
	var holes []blockTask
	for c := 0; c < h.NComp; c++ {
		for bi, band := range bands {
			if band.W == 0 || band.H == 0 {
				continue
			}
			var delta float32
			if !h.Lossless {
				delta = float32(quant.StepFor(h.BaseDelta, h.Levels, band.Orient, band.Level))
			}
			gw := (band.W + h.CBW - 1) / h.CBW
			gh := (band.H + h.CBH - 1) / h.CBH
			acc := accs[c*nb+bi]
			for gy := 0; gy < gh; gy++ {
				y0 := gy * h.CBH
				bh := min(h.CBH, band.H-y0)
				run := -1 // first grid column of the open hole run
				closeRun := func(end int) {
					if run >= 0 {
						x0 := run * h.CBW
						holes = append(holes, blockTask{
							x0: band.X0 + x0, y0: band.Y0 + y0,
							bw: min(end*h.CBW, band.W) - x0, bh: bh, c: c, bi: bi,
						})
						run = -1
					}
				}
				for gx := 0; gx < gw; gx++ {
					a := acc[gy*gw+gx]
					if a == nil {
						if run < 0 {
							run = gx
						}
						continue
					}
					closeRun(gx)
					// A corrupt zero-bitplane count can exceed the band's
					// M_b; clamp so Tier-1 sees a sane (empty) block
					// instead of a negative bit-plane count.
					tasks = append(tasks, blockTask{
						acc: a, orient: band.Orient, numBPS: max(h.Mb[c][bi]-a.zbp, 0), delta: delta,
						x0: band.X0 + gx*h.CBW, y0: band.Y0 + y0,
						bw: min(h.CBW, band.W-gx*h.CBW), bh: bh, c: c, bi: bi, gx: gx, gy: gy,
					})
				}
				closeRun(gw)
			}
		}
	}
	return append(tasks, holes...), len(tasks)
}

// putPlanes recycles pooled planes.
func putPlanes[T imgmodel.Sample](planes []*imgmodel.Samples[T]) {
	for _, pl := range planes {
		imgmodel.Put(pl)
	}
}

// tileCoefs holds one tile's pooled coefficient planes in the form the
// inverse DWT reads — integers on the reversible path, floats on the
// irreversible one — and writes Tier-1 tasks into them.
type tileCoefs[T imgmodel.Sample] struct {
	planes  []*imgmodel.Samples[T]
	mode    t1.Mode
	scratch int // samples of a block's index scratch (irreversible path)
}

func getTileCoefs[T imgmodel.Sample](h *codestream.Header, mode t1.Mode, tw, th int) *tileCoefs[T] {
	co := &tileCoefs[T]{planes: make([]*imgmodel.Samples[T], h.NComp), mode: mode, scratch: h.CBW * h.CBH}
	for c := range co.planes {
		co.planes[c] = imgmodel.Get[T](tw, th)
	}
	return co
}

// write produces task tk's final coefficients: a hole is zero-filled;
// a block is decoded in place on the reversible path, or into scratch
// and dequantized into its float plane on the irreversible one. A
// block that fails to decode leaves its region unwritten and returns
// the error.
func (co *tileCoefs[T]) write(tk *blockTask) error {
	if tk.acc == nil {
		co.zero(tk)
		return nil
	}
	var err error
	switch pl := any(co.planes[tk.c]).(type) {
	case *imgmodel.Plane:
		err = t1.Decode(pl.Data[tk.y0*pl.Stride+tk.x0:], tk.bw, tk.bh, pl.Stride,
			tk.orient, co.mode, tk.numBPS, tk.acc.passes, tk.acc.data, tk.acc.segLens)
	case *imgmodel.FPlane:
		// Every block takes a whole block's scratch, so the pooled
		// buffers all fit the next block.
		scratch := getScratch[int32](co.scratch)
		buf := (*scratch)[:tk.bw*tk.bh]
		err = t1.Decode(buf, tk.bw, tk.bh, tk.bw,
			tk.orient, co.mode, tk.numBPS, tk.acc.passes, tk.acc.data, tk.acc.segLens)
		if err == nil {
			quant.DequantizeBlock(pl.Data[tk.y0*pl.Stride+tk.x0:], pl.Stride, buf, tk.bw, tk.bh, tk.delta)
		}
		putScratch(scratch)
	}
	if err != nil {
		return formatErrf(err, "block c=%d band=%d (%d,%d)", tk.c, tk.bi, tk.gx, tk.gy)
	}
	return nil
}

// zero clears task tk's region of its plane.
func (co *tileCoefs[T]) zero(tk *blockTask) {
	pl := co.planes[tk.c]
	for y := tk.y0; y < tk.y0+tk.bh; y++ {
		clear(pl.Data[y*pl.Stride+tk.x0:][:tk.bw])
	}
}

// decode runs the tile's decode from the Tier-1 tasks on. Tier-1
// writes every coefficient the inverse transforms will read exactly
// once, in final form, straight into the pooled planes, which arrive
// dirty: a block with data decodes into them, and a hole — no data in
// the decoded layers, or outside a requested region — is zero-filled
// by the same stage. Bands of discarded levels are never read by the
// inverse DWT, so they get neither. Then the multi-level inverse DWT
// with k's kernels down to level discard and imct, the fused inverse
// MCT + clamp, drain the same work queue, and the planes go back to
// the pool once the last stage is done with them. With discard > 0
// the finest discard levels stay transformed, and the top-left
// LevelDims(tw, th, discard) corner of the planes is the tile at
// reduced resolution. imct reads plane views at win's origin — win
// lies in that corner — and writes dst, win.W × win.H, so each output
// pixel is written once and only the window is colour-converted.
// Bit-identical to running dwt.InverseLevels53/97 and the serial MCT
// helpers per plane, then cropping.
func (co *tileCoefs[T]) decode(p *Pipeline, st obs.Stage, h *codestream.Header, bands []dwt.Band, tasks []blockTask, dmg *tileDamage,
	k dwt.Lifting[T], imct func(*imgmodel.Image, []*imgmodel.Samples[T], *codestream.Header), discard int, win Rect, dst *imgmodel.Image) error {
	// The planes are released after the pipeline's run calls have
	// returned, so no worker still references them; the views die here
	// and never go to the pool.
	defer putPlanes(co.planes)
	if err := decodeBlocksBestEffort(p, st, h, bands, co, tasks, dmg); err != nil {
		return err
	}
	inverseDWT(p, k, co.planes, h.Levels, discard)
	views := make([]*imgmodel.Samples[T], len(co.planes))
	for c, pl := range co.planes {
		views[c] = pl.View(win.X0, win.Y0, win.W, win.H)
	}
	imct(dst, views, h)
	return p.Err()
}

// clearImage zeroes every sample of img, a view included.
func clearImage(img *imgmodel.Image) {
	for _, pl := range img.Comps {
		for y := 0; y < pl.H; y++ {
			clear(pl.Row(y))
		}
	}
}
