package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"j2kcell"
	"j2kcell/internal/codec"
	"j2kcell/internal/codestream"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/t1"
	"j2kcell/internal/t2"
)

// tracePairs is how many composed and untraced ops of each direction a
// traced process runs at least; a timed run keeps alternating until its
// share of the run is spent.
const tracePairs = 5

// layerRec is one composed op: the time spent inside each layer call,
// the op's wall time, and its structural counters.
type layerRec struct {
	MS     map[string]float64
	WallMS float64
	Count  map[string]float64
}

func newLayerRec() layerRec {
	return layerRec{MS: map[string]float64{}, Count: map[string]float64{}}
}

// time runs fn and adds its duration to layer.
func (l layerRec) time(layer string, fn func()) {
	t := time.Now()
	fn()
	l.MS[layer] += msSince(t)
}

// coverage is the share of the op's wall time that landed in a layer.
func (l layerRec) coverage() float64 {
	sum := 0.0
	for _, ms := range l.MS {
		sum += ms
	}
	return sum / l.WallMS
}

// traceResult is what a traced process measured.
type traceResult struct {
	Tally                  // every checked op, the loop's included
	GainsColdMS float64    // the process's first dwt.WarmGains
	Enc, Dec    []layerRec // composed ops
	Enc1, Dec1  []float64  // ms of the untraced single-worker ops
	Rep         *repResult // the workload's own loop: scheduler and CPU counters
}

// runTrace is the traced process: the cold gain-table build, then
// composed single-worker ops alternating with untraced
// EncodeParallel(…,1)/DecodeParallel(…,1) ops on the same inputs, then
// a short run of the workload's own loop for the scheduler counters.
// With cfg.ops set it runs exactly tracePairs of each op and cfg.ops
// loop ops; otherwise it spends two thirds of cfg.dur on the
// alternation and one third on the loop.
func runTrace(in *inputs, cfg repConfig) *traceResult {
	tr := &traceResult{}
	enc, dec := &in.TraceEnc, &in.TraceDec
	opt := enc.Opt.WithDefaults(enc.Img.W, enc.Img.H)
	t := time.Now()
	dwt.WarmGains(opt.Filter(), opt.Levels)
	tr.GainsColdMS = msSince(t)

	untraced := func(k *opKind) float64 {
		t := time.Now()
		data, img, err := k.run(context.Background(), 1)
		ms := msSince(t)
		if err == nil {
			err = k.check(data, img)
		}
		tr.note(err)
		return ms
	}
	deadline := time.Now().Add(cfg.dur * 2 / 3)
	for i := 0; i < tracePairs || (cfg.ops == 0 && time.Now().Before(deadline)); i++ {
		rec, err := tracedEncode(enc)
		tr.note(err)
		tr.Enc = append(tr.Enc, rec)
		tr.Enc1 = append(tr.Enc1, untraced(enc))
		rec, err = tracedDecode(dec)
		tr.note(err)
		tr.Dec = append(tr.Dec, rec)
		tr.Dec1 = append(tr.Dec1, untraced(dec))
	}

	loop := cfg
	loop.dur = cfg.dur / 3
	loop.sample = true
	tr.Rep = runRep(in, loop)
	tr.add(tr.Rep.Tally)
	return tr
}

// minCoverage is the share of a composed op's wall time the layer calls
// must account for; the rest is the composition's own bookkeeping.
const minCoverage = 0.95

func tracedEncode(k *opKind) (layerRec, error) {
	rec := newLayerRec()
	t := time.Now()
	e, err := composeEncode(k.Img, k.Opt, rec)
	rec.WallMS = msSince(t)
	if err != nil {
		return rec, fmt.Errorf("composed %s: %w", k.Name, err)
	}
	if !bytes.Equal(e.data, k.Stream) {
		return rec, fmt.Errorf("composed %s: codestream differs from j2kcell.Encode (%d vs %d bytes)", k.Name, len(e.data), len(k.Stream))
	}
	e.count(rec)
	if c := rec.coverage(); c < minCoverage {
		return rec, fmt.Errorf("composed %s: layers cover %.3f of the op", k.Name, c)
	}
	return rec, nil
}

func tracedDecode(k *opKind) (layerRec, error) {
	rec := newLayerRec()
	t := time.Now()
	img, err := composeDecode(k.Stream, rec)
	rec.WallMS = msSince(t)
	if err != nil {
		return rec, fmt.Errorf("composed %s: %w", k.Name, err)
	}
	if !img.Equal(k.Want) {
		return rec, fmt.Errorf("composed %s: image differs from j2kcell.Decode", k.Name)
	}
	if c := rec.coverage(); c < minCoverage {
		return rec, fmt.Errorf("composed %s: layers cover %.3f of the op", k.Name, c)
	}
	return rec, nil
}

// composedEncode keeps what the counters need after the timed op.
type composedEncode struct {
	img    *j2kcell.Image
	opt    codec.Options
	data   []byte
	body   []byte
	blocks []*t1.Block
	keep   []int
	rounds int
}

// composeEncode is j2kcell.Encode — EncodeParallel with one worker on an
// untiled image — rebuilt from the public call into each layer, in the
// order and with the arguments the codec's own pipeline uses, timing
// each call into rec.
func composeEncode(img *j2kcell.Image, opt codec.Options, rec layerRec) (*composedEncode, error) {
	opt = opt.WithDefaults(img.W, img.H)
	if opt.TileW > 0 || opt.TileH > 0 {
		return nil, errors.New("the composition covers untiled encodes only")
	}
	w, h, ncomp := img.W, img.H, len(img.Comps)
	var jobs []codec.BlockJob
	rec.time("plan", func() {
		dwt.WarmGains(opt.Filter(), opt.Levels)
		_, jobs = codec.PlanBlocks(w, h, ncomp, opt)
	})
	p := codec.NewPipeline(1)
	var planes []*imgmodel.Plane
	if opt.Lossless {
		rec.time("mct.fwd", func() { planes = p.MCTInt(img, opt) })
		rec.time("dwt.fwd", func() { p.DWT53(planes, opt) })
	} else {
		var fplanes []*imgmodel.FPlane
		rec.time("mct.fwd", func() { fplanes = p.MCTFloat(img, opt) })
		rec.time("dwt.fwd", func() { p.DWT97(fplanes, opt) })
		rec.time("quant.fwd", func() {
			planes = p.QuantizePlanes(fplanes, opt)
			for _, fp := range fplanes {
				imgmodel.PutFPlane(fp)
			}
		})
	}
	mode := opt.Mode()
	e := &composedEncode{img: img, opt: opt}
	rec.time("t1.enc", func() {
		e.blocks = p.Tier1Int(planes, jobs, mode, nil)
		for _, pl := range planes {
			imgmodel.PutPlane(pl)
		}
	})
	if err := p.Err(); err != nil {
		return nil, err
	}

	rates := layerRates(opt)
	allocate := func(extra int) [][]int {
		var keeps [][]int
		rec.time("rate", func() { keeps = codec.AllocateLayers(e.blocks, jobs, img, opt, rates, extra) })
		e.rounds++
		return keeps
	}
	build := func(keeps [][]int) {
		var mb [][]int
		rec.time("t2.enc", func() { e.body, mb = codec.AssemblePackets(w, h, ncomp, opt, jobs, e.blocks, keeps, nil) })
		head := &codestream.Header{
			W: w, H: h, NComp: ncomp, Depth: img.Depth,
			Levels: opt.Levels, CBW: opt.CBW, CBH: opt.CBH,
			Layers: len(keeps), Progression: int(opt.Progression),
			SOPMarkers: opt.Resilience,
			Lossless:   opt.Lossless, UseMCT: ncomp == 3,
			TermAll: mode.Base() == t1.ModeTermAll, SegSym: mode.SegSym(),
			HT: opt.HT, BaseDelta: opt.BaseDelta, Mb: mb,
		}
		rec.time("frame", func() { e.data = codestream.Encode(head, e.body) })
		e.keep = keeps[len(keeps)-1]
	}
	if rates == nil {
		build([][]int{codec.FullKeep(e.blocks)})
		return e, nil
	}
	build(allocate(0))
	// The header size is only known after assembly: shave the body
	// budget and retry while the stream overshoots, as the codec does.
	target := int(rates[len(rates)-1] * float64(w*h*ncomp*img.Depth/8))
	for extra := 16; len(e.data) > target && extra < target; extra *= 2 {
		build(allocate(len(e.data) - target + extra))
	}
	return e, nil
}

// layerRates mirrors the codec's choice of cumulative rate targets: nil
// when nothing constrains the stream.
func layerRates(o codec.Options) []float64 {
	switch {
	case o.Lossless:
		return nil
	case len(o.LayerRates) > 0:
		return o.LayerRates
	case o.Rate > 0:
		return []float64{o.Rate}
	}
	return nil
}

// count records the encode's structural counters.
func (e *composedEncode) count(rec layerRec) {
	var coded, scanned, passes, blocks, t1Bytes, kept int
	for i, b := range e.blocks {
		coded += b.TotalCoded()
		scanned += b.TotalScanned()
		passes += len(b.Passes)
		t1Bytes += len(b.Data)
		if b.NumBPS > 0 {
			blocks++
		}
		if k := e.keep[i]; k > 0 {
			kept += b.Passes[k-1].CumLen
		}
	}
	c := rec.Count
	c["coded"] = float64(coded)
	c["scanned"] = float64(scanned)
	c["passes"] = float64(passes)
	c["blocks"] = float64(blocks)
	c["t1_bytes"] = float64(t1Bytes)
	c["kept_bytes"] = float64(kept)
	c["rate_rounds"] = float64(e.rounds)
	c["packets"] = float64(len(codec.PacketOrder(e.opt.Progression, e.opt.NumLayers(), e.opt.Levels, len(e.img.Comps))))
	c["packet_header_bytes"] = float64(len(e.body) - kept)
	c["dwt_bytes"] = float64(dwtBytes(e.img.W, e.img.H, e.opt.Levels) * int64(len(e.img.Comps)))
}

// dwtBytes is what a forward transform of one w×h plane reads and
// writes: each lifting phase of each level moves every sample of the
// level's region in and out as 4-byte words.
func dwtBytes(w, h, levels int) int64 {
	var n int64
	for l := 0; l < levels; l++ {
		lw, lh := dwt.LevelDims(w, h, l)
		if lw <= 1 && lh <= 1 {
			break
		}
		if lh > 1 {
			n += int64(lw) * int64(lh) * 8
		}
		if lw > 1 {
			n += int64(lw) * int64(lh) * 8
		}
	}
	return n
}

// blockAcc accumulates one code block's contributions across packets.
type blockAcc struct {
	zbp, passes int
	segLens     []int
	data        []byte
}

// composeDecode is j2kcell.Decode of an untiled stream without SOP
// markers rebuilt from the public call into each layer, timing each
// call into rec.
func composeDecode(data []byte, rec layerRec) (*j2kcell.Image, error) {
	var h *codestream.Header
	var bodies [][]byte
	var err error
	rec.time("parse", func() { h, bodies, err = codestream.DecodeTiles(data) })
	if err != nil {
		return nil, err
	}
	if len(bodies) != 1 || h.SOPMarkers || (h.TileW > 0 && h.TileW < h.W) || (h.TileH > 0 && h.TileH < h.H) {
		return nil, errors.New("the composition covers untiled streams without SOP markers only")
	}
	body := bodies[0]
	bands := dwt.Layout(h.W, h.H, h.Levels)
	mode, style := t1.ModeSingle, t2.SegSingle
	switch {
	case h.HT:
		mode, style = t1.ModeHT, t2.SegTermAll
	case h.TermAll:
		mode, style = t1.ModeTermAll, t2.SegTermAll
	}
	if h.SegSym {
		mode = mode.WithSegSym()
	}

	type key struct{ c, b int }
	accs := map[key][]*blockAcc{}
	rec.time("t2.dec", func() {
		precincts := map[key]*t2.Precinct{}
		for c := 0; c < h.NComp; c++ {
			for bi, band := range bands {
				gw := (band.W + h.CBW - 1) / h.CBW
				gh := (band.H + h.CBH - 1) / h.CBH
				precincts[key{c, bi}] = t2.NewPrecinct(gw, gh)
				accs[key{c, bi}] = make([]*blockAcc, gw*gh)
			}
		}
		off := 0
		for _, lrc := range codec.PacketOrder(codec.Progression(h.Progression), h.Layers, h.Levels, h.NComp) {
			l, r, c := lrc[0], lrc[1], lrc[2]
			resBands := codec.ResBands(h.Levels, r)
			pkt := make([]*t2.Precinct, len(resBands))
			for i, bi := range resBands {
				pkt[i] = precincts[key{c, bi}]
			}
			var n int
			if n, err = t2.DecodePacketEPH(body[off:], pkt, l, style, false); err != nil {
				return
			}
			off += n
			for _, bi := range resBands {
				acc := accs[key{c, bi}]
				for i, blk := range precincts[key{c, bi}].Blocks {
					if blk == nil || blk.NumPasses == 0 {
						continue
					}
					if acc[i] == nil {
						acc[i] = &blockAcc{zbp: blk.ZeroBP}
					}
					a := acc[i]
					a.passes += blk.NumPasses
					for _, s := range blk.Segments {
						a.segLens = append(a.segLens, s.Len)
					}
					a.data = append(a.data, blk.Data...)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}

	p := codec.NewPipeline(1)
	planes := make([]*imgmodel.Plane, h.NComp)
	rec.time("zero", func() {
		for c := range planes {
			planes[c] = imgmodel.GetPlane(h.W, h.H)
		}
		p.ZeroPlanes(planes)
	})
	t1Bytes := 0
	rec.time("t1.dec", func() {
		for c := 0; c < h.NComp && err == nil; c++ {
			pl := planes[c]
			for bi, band := range bands {
				gw := (band.W + h.CBW - 1) / h.CBW
				for i, a := range accs[key{c, bi}] {
					if a == nil {
						continue
					}
					gx, gy := i%gw, i/gw
					bw, bh := min(h.CBW, band.W-gx*h.CBW), min(h.CBH, band.H-gy*h.CBH)
					x0, y0 := band.X0+gx*h.CBW, band.Y0+gy*h.CBH
					numBPS := max(h.Mb[c][bi]-a.zbp, 0)
					if err = t1.Decode(pl.Data[y0*pl.Stride+x0:], bw, bh, pl.Stride,
						band.Orient, mode, numBPS, a.passes, a.data, a.segLens); err != nil {
						return
					}
					t1Bytes += len(a.data)
				}
			}
		}
	})
	rec.Count["t1_dec_bytes"] = float64(t1Bytes)
	if err != nil {
		return nil, err
	}

	var img *j2kcell.Image
	if h.Lossless {
		rec.time("dwt.inv", func() { p.IDWT53(planes, h.Levels, 0) })
		rec.time("mct.inv", func() {
			img = imgmodel.NewImage(h.W, h.H, h.NComp, h.Depth)
			p.InverseMCTInt(img, planes, h)
			for _, pl := range planes {
				imgmodel.PutPlane(pl)
			}
		})
	} else {
		var fplanes []*imgmodel.FPlane
		rec.time("deq", func() {
			fplanes = p.Dequantize(h, bands, planes)
			for _, pl := range planes {
				imgmodel.PutPlane(pl)
			}
		})
		rec.time("dwt.inv", func() { p.IDWT97(fplanes, h.Levels, 0) })
		rec.time("mct.inv", func() {
			img = imgmodel.NewImage(h.W, h.H, h.NComp, h.Depth)
			p.InverseMCTFloat(img, fplanes, h)
			for _, fp := range fplanes {
				imgmodel.PutFPlane(fp)
			}
		})
	}
	return img, p.Err()
}
