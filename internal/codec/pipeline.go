package codec

import (
	"context"
	"sync"
	"sync/atomic"

	"j2kcell/internal/decomp"
	"j2kcell/internal/dwt"
	"j2kcell/internal/faults"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/mct"
	"j2kcell/internal/obs"
	"j2kcell/internal/quant"
	"j2kcell/internal/rate"
	"j2kcell/internal/simd"
	"j2kcell/internal/t1"
)

// Pipeline runs the native encode path as explicit stages over the
// shared scheduler's worker pool, the Go analogue of the paper's
// whole-pipeline parallelization (Section 3):
//
//	merged level shift + MCT   — row stripes
//	multi-level DWT            — vertical: cache-line column groups
//	                             (decomp.Partition, §3.2); horizontal:
//	                             row stripes; barrier per level
//	quantization + Tier-1      — one fused block job per code block
//	                             through the shared work queue (§3.3)
//
// Every stage drains a single atomically-claimed job queue, so work
// distribution is self-balancing regardless of content. All stage
// splits are elementwise-independent (columns for vertical lifting,
// rows for horizontal filtering and MCT, disjoint block regions for
// quantization and Tier-1), so the emitted codestream is byte-identical
// to the sequential encoder for every worker count — the DESIGN.md §5
// invariant. Stripe, auxiliary, and plane buffers are recycled through
// sync.Pool arenas, keeping steady-state encode allocations
// near-constant.
//
// A Pipeline additionally carries the fault-containment and
// cancellation state of one encode or decode: a context checked
// between job claims, and a first-error latch filled by the per-job
// recover wrapper. Create one Pipeline per encode/decode; it is safe
// for the pool workers draining its stages but not for reuse across
// operations.
type Pipeline struct {
	workers int
	ctx     context.Context
	done    <-chan struct{} // ctx.Done(), cached (nil for Background)
	rec     *obs.Recorder   // the context's operation recorder, resolved once (nil: none)

	// Scheduler binding (DESIGN.md §12), nil for single-worker
	// pipelines: multi-worker stages are submitted to the pool on this
	// operation's lane. lane is opened lazily by the first such stage
	// and closed by Close.
	sched *Scheduler
	lane  *schedLane

	aborted atomic.Bool // fast stop flag checked between job claims
	mu      sync.Mutex
	err     error // first stage fault or injected error
}

// NewPipeline returns a pipeline that runs its stages on up to
// `workers` executors (minimum 1; 1 means run inline), without
// cancellation (context.Background). Multi-worker stages drain on the
// process-default scheduler.
func NewPipeline(workers int) *Pipeline {
	return NewPipelineContext(context.Background(), workers)
}

// NewPipelineContext is NewPipeline bound to a context: the work-queue
// drain loops check ctx between jobs, so cancellation or a deadline
// stops the encode/decode within a bounded number of outstanding jobs
// (at most one per worker) and the operation returns ctx.Err(). The
// scheduler comes from ctx (WithScheduler), else the process default.
func NewPipelineContext(ctx context.Context, workers int) *Pipeline {
	if workers < 1 {
		workers = 1
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Resolve the operation recorder (obs.WithOperation) once; every
	// stage hook below then pays a plain nil check, not a context walk.
	return &Pipeline{
		workers: workers, ctx: ctx, done: ctx.Done(), rec: obs.FromContext(ctx),
		sched: schedulerFor(ctx, workers),
	}
}

// Close releases the pipeline's scheduler lane, if one was opened.
// Every function that creates a multi-worker pipeline defers it; a
// pipeline whose stages all ran inline closes as a no-op. Pool workers
// exit once the last lane in the process closes, so idle processes
// hold no scheduler goroutines.
func (p *Pipeline) Close() {
	if p.lane != nil {
		p.sched.closeLane(p.lane)
		p.lane = nil
	}
}

// Workers reports the pool width.
func (p *Pipeline) Workers() int { return p.workers }

// Context returns the context the pipeline was bound to.
func (p *Pipeline) Context() context.Context { return p.ctx }

// Fail records err as the pipeline's failure (first error wins) and
// stops further job claims. Safe from any worker.
func (p *Pipeline) Fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.aborted.Store(true)
}

// Err returns the pipeline's failure: the first contained fault or
// injected error if one occurred, else the context's error (so a
// cancelled encode reports context.Canceled / DeadlineExceeded
// unwrapped), else nil.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	err := p.err
	p.mu.Unlock()
	if err != nil {
		return err
	}
	return p.ctx.Err()
}

// clearFault resets the first-error latch and the abort flag so a
// best-effort stage can demote a contained fault to localized damage
// and resume draining. Callers must only invoke it between run calls
// (no workers in flight) — the resilient Tier-1 retry loop does, after
// concealing the faulted block.
func (p *Pipeline) clearFault() {
	p.mu.Lock()
	p.err = nil
	p.mu.Unlock()
	p.aborted.Store(false)
}

// stopped reports whether workers should stop claiming jobs: a stage
// fault was recorded or the context is done. It is the per-claim hot
// check — one atomic load plus a non-blocking channel poll (the poll
// compiles to a nil check for Background contexts).
func (p *Pipeline) stopped() bool {
	if p.aborted.Load() {
		return true
	}
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// job runs one queue job under fault containment: an injected fault
// (faults.Hit) fails the pipeline with its typed error, and a panic
// from the stage body is recovered into a *FaultError carrying the
// stage, worker lane, and job coordinates, counted on the obs
// fault_contained_panics counter. The job never propagates a panic to
// a drain loop, so every stage barrier completes — no hang, no
// goroutine leak.
func (p *Pipeline) job(st obs.Stage, arg int32, lane, i int, fn func(int)) {
	defer func() {
		if r := recover(); r != nil {
			p.rec.Add(obs.CtrFaultPanics, 1)
			p.Fail(asFault(r, st.String(), lane, i, int(arg)))
		}
	}()
	if err := faults.Hit(st.String()); err != nil {
		p.Fail(&FaultError{Stage: st.String(), Lane: lane, Job: i, Arg: int(arg), Err: err})
		return
	}
	fn(i)
}

// stripeRows is the row granularity of the stripe-parallel stages:
// coarse enough to amortize queue claims, fine enough to balance.
const stripeRows = 64

// run drains n jobs through the shared work queue: one atomic cursor
// claimed by up to p.workers executors — the paper's load-balancing
// work queue, with the atomic increment standing in for the MFC atomic
// unit. With a single worker (or a single job) it runs inline;
// otherwise the stage is published on this operation's scheduler lane
// (DESIGN.md §12) and the calling goroutine drains it alongside the
// pool, so the stage completes even when the pool is busy elsewhere.
//
// Every job is bracketed by an observability span (stage st, stage
// argument arg — e.g. the DWT level — and the job index) on the claiming
// executor's lane, and each claim is counted per lane; with
// observability disabled the extra work per job is a nil check.
//
// Each claim first checks the pipeline's stop state (contained fault or
// context cancellation), so an aborting drain completes within one
// outstanding job per worker, and every job body runs under the
// containment wrapper (Pipeline.job). run returns the pipeline's error
// so stages can short-circuit; a stopped pipeline drains subsequent
// run calls immediately.
func (p *Pipeline) run(st obs.Stage, arg int32, n int, fn func(i int)) error {
	if n <= 0 || p.stopped() {
		return p.Err()
	}
	rec := p.rec
	rec.Add(obs.CtrQueueRuns, 1)
	rec.Add(obs.CtrQueueJobs, int64(n))
	if p.sched == nil || n == 1 {
		ln := rec.Acquire()
		for i := 0; i < n && !p.stopped(); i++ {
			ln.Claim()
			sp := ln.Begin(st, arg, int32(i))
			p.job(st, arg, 0, i, fn)
			sp.End()
		}
		ln.Release()
		return p.Err()
	}
	if p.lane == nil {
		p.lane = p.sched.openLane()
	}
	return p.runShared(st, arg, n, fn)
}

// Scratch pools for stripe-sized transients (DWT aux rows, horizontal
// line buffers, per-block quantizer output). Contents are unspecified;
// every user writes before reading.
var (
	i32Pool sync.Pool // *[]int32
	f32Pool sync.Pool // *[]float32
)

func getI32(n int) *[]int32 {
	p, _ := i32Pool.Get().(*[]int32)
	if p == nil {
		s := make([]int32, n)
		return &s
	}
	if cap(*p) < n {
		*p = make([]int32, n)
	} else {
		*p = (*p)[:n]
	}
	return p
}

func putI32(p *[]int32) { i32Pool.Put(p) }

func getF32(n int) *[]float32 {
	p, _ := f32Pool.Get().(*[]float32)
	if p == nil {
		s := make([]float32, n)
		return &s
	}
	if cap(*p) < n {
		*p = make([]float32, n)
	} else {
		*p = (*p)[:n]
	}
	return p
}

func putF32(p *[]float32) { f32Pool.Put(p) }

// stripes returns the number of stripeRows-high row stripes covering h.
func stripes(h int) int { return (h + stripeRows - 1) / stripeRows }

// stripeBounds returns the row range of stripe s, clamped to h.
func stripeBounds(s, h int) (int, int) {
	y0 := s * stripeRows
	y1 := y0 + stripeRows
	if y1 > h {
		y1 = h
	}
	return y0, y1
}

// MCTInt is the reversible first stage: copy the components into pooled
// working planes and apply the merged level shift + RCT (or the plain
// shift) stripe-parallel. The returned planes come from the imgmodel
// plane pool; the caller releases them with imgmodel.PutPlane once
// Tier-1 has consumed them.
func (p *Pipeline) MCTInt(img *imgmodel.Image, opt Options) []*imgmodel.Plane {
	w, h := img.W, img.H
	planes := make([]*imgmodel.Plane, len(img.Comps))
	for c := range planes {
		planes[c] = imgmodel.GetPlane(w, h)
	}
	useMCT := len(planes) == 3
	p.run(obs.StageMCT, 0, stripes(h), func(s int) {
		y0, y1 := stripeBounds(s, h)
		for c, pl := range planes {
			src := img.Comps[c]
			copy(pl.Data[y0*pl.Stride:y1*pl.Stride], src.Data[y0*src.Stride:y1*src.Stride])
		}
		if useMCT {
			mct.ForwardRCTRows(planes[0].Data, planes[1].Data, planes[2].Data,
				w, planes[0].Stride, y0, y1, img.Depth)
		} else {
			for _, pl := range planes {
				mct.LevelShiftRows(pl.Data, w, pl.Stride, y0, y1, img.Depth)
			}
		}
	})
	return planes
}

// MCTFloat is the irreversible first stage: merged level shift + ICT
// (or shift-to-float) into pooled float planes, stripe-parallel. The
// caller releases the planes with imgmodel.PutFPlane.
func (p *Pipeline) MCTFloat(img *imgmodel.Image, opt Options) []*imgmodel.FPlane {
	w, h := img.W, img.H
	fplanes := make([]*imgmodel.FPlane, len(img.Comps))
	for c := range fplanes {
		fplanes[c] = imgmodel.GetFPlane(w, h)
	}
	useMCT := len(fplanes) == 3
	p.run(obs.StageMCT, 0, stripes(h), func(s int) {
		y0, y1 := stripeBounds(s, h)
		if useMCT {
			mct.ForwardICTRows(
				img.Comps[0].Data, img.Comps[1].Data, img.Comps[2].Data,
				fplanes[0].Data, fplanes[1].Data, fplanes[2].Data,
				w, img.Comps[0].Stride, fplanes[0].Stride, y0, y1, img.Depth)
		} else {
			for c := range fplanes {
				mct.ShiftToFloatRows(img.Comps[c].Data, fplanes[c].Data,
					w, img.Comps[c].Stride, fplanes[c].Stride, y0, y1, img.Depth)
			}
		}
	})
	return fplanes
}

// dwtLevel describes the parallel split of one decomposition level:
// vertical jobs are (component × column group), horizontal jobs are
// (component × row stripe), with a barrier between the two phases and
// between levels (the vertical filter of level l+1 reads the LL rows
// the horizontal filter of level l wrote).
type dwtLevel struct {
	lw, lh int
	chunks []decomp.Chunk
}

// levelPlan computes the per-level geometry once per encode. Column
// groups follow the paper's tuning: cache-line multiples sized so each
// worker gets roughly one group per component per level.
func (p *Pipeline) levelPlan(w, h, levels int) []dwtLevel {
	var plan []dwtLevel
	for l := 0; l < levels; l++ {
		lw, lh := dwt.LevelDims(w, h, l)
		if lw <= 1 && lh <= 1 {
			break
		}
		lv := dwtLevel{lw: lw, lh: lh}
		if lh > 1 {
			lv.chunks = decomp.Partition(lw, decomp.ChunkWidthFor(lw, p.workers), p.workers)
		}
		plan = append(plan, lv)
	}
	return plan
}

// DWT53 runs the reversible multi-level transform over all components,
// column-group-parallel vertically and stripe-parallel horizontally.
// Bit-identical to dwt.Forward53 on each plane.
func (p *Pipeline) DWT53(planes []*imgmodel.Plane, opt Options) {
	w, h := planes[0].W, planes[0].H
	rec := p.rec
	for li, lv := range p.levelPlan(w, h, opt.Levels) {
		if lv.lh > 1 {
			nc := len(lv.chunks)
			p.run(obs.StageDWTVert, int32(li), nc*len(planes), func(i int) {
				pl, ch := planes[i/nc], lv.chunks[i%nc]
				aux := getI32(dwt.AuxLen(ch.W, lv.lh))
				dwt.Vertical53Stripe(pl.Data, ch.X0, ch.W, lv.lh, pl.Stride, *aux)
				putI32(aux)
				rec.Add(obs.CtrDWTBytesMoved, int64(ch.W)*int64(lv.lh)*8)
			})
		}
		if lv.lw > 1 {
			ns := stripes(lv.lh)
			p.run(obs.StageDWTHorz, int32(li), ns*len(planes), func(i int) {
				pl := planes[i/ns]
				y0, y1 := stripeBounds(i%ns, lv.lh)
				tmp := getI32(lv.lw)
				dwt.Horizontal53Rows(pl.Data, lv.lw, pl.Stride, y0, y1, *tmp)
				putI32(tmp)
				rec.Add(obs.CtrDWTBytesMoved, int64(y1-y0)*int64(lv.lw)*8)
			})
		}
	}
}

// DWT97 is the irreversible analogue of DWT53; bit-identical to
// dwt.Forward97 on each plane.
func (p *Pipeline) DWT97(fplanes []*imgmodel.FPlane, opt Options) {
	w, h := fplanes[0].W, fplanes[0].H
	rec := p.rec
	for li, lv := range p.levelPlan(w, h, opt.Levels) {
		if lv.lh > 1 {
			nc := len(lv.chunks)
			p.run(obs.StageDWTVert, int32(li), nc*len(fplanes), func(i int) {
				pl, ch := fplanes[i/nc], lv.chunks[i%nc]
				aux := getF32(dwt.AuxLen(ch.W, lv.lh))
				dwt.Vertical97Stripe(pl.Data, ch.X0, ch.W, lv.lh, pl.Stride, *aux)
				putF32(aux)
				rec.Add(obs.CtrDWTBytesMoved, int64(ch.W)*int64(lv.lh)*8)
			})
		}
		if lv.lw > 1 {
			ns := stripes(lv.lh)
			p.run(obs.StageDWTHorz, int32(li), ns*len(fplanes), func(i int) {
				pl := fplanes[i/ns]
				y0, y1 := stripeBounds(i%ns, lv.lh)
				tmp := getF32(lv.lw)
				dwt.Horizontal97Rows(pl.Data, lv.lw, pl.Stride, y0, y1, *tmp)
				putF32(tmp)
				rec.Add(obs.CtrDWTBytesMoved, int64(y1-y0)*int64(lv.lw)*8)
			})
		}
	}
}

// tier1Stage selects the observability stage for a Tier-1 mode: the HT
// coder runs under its own stage label ("t1ht"), which both separates
// the two coders' timings in reports and gives HT its own fault
// injection point (faults.Arm keys on the stage name).
func tier1Stage(mode t1.Mode) obs.Stage {
	if mode.IsHT() {
		return obs.StageT1HT
	}
	return obs.StageT1
}

// codeBlock is the one Tier-1 encode site: it codes job j's
// coefficients (row stride given) and, when rd is non-nil
// (rate-constrained encodes), builds the block's R-D ladder and convex
// hull in rd[i], so the hull sweep rides the parallel stage instead of
// the sequential rate-control tail. The block's workload counters are
// recorded on the operation's recorder from the returned block; only
// non-empty blocks count as coded.
func (p *Pipeline) codeBlock(coef []int32, stride int, j BlockJob, mode t1.Mode, rd []rate.BlockRD, i int) *t1.Block {
	b := t1.Encode(coef, j.W, j.H, stride, j.Band.Orient, mode, j.Gain)
	if rd != nil {
		rd[i] = LadderOf(b)
		rd[i].ComputeHull()
	}
	rec := p.rec
	if rec == nil {
		return b
	}
	if rd != nil {
		rec.Add(obs.CtrHulls, 1)
	}
	if b.NumBPS > 0 {
		rec.Add(obs.CtrT1Blocks, 1)
		rec.Add(obs.CtrT1Scanned, int64(b.TotalScanned()))
		rec.Add(obs.CtrT1Coded, int64(b.TotalCoded()))
		if mode.IsHT() {
			rec.Add(obs.CtrHTBlocks, 1)
			rec.Add(obs.CtrHTBytes, int64(len(b.Data)))
		} else {
			rec.Add(obs.CtrMQRenorms, b.Renorms)
		}
	}
	return b
}

// Tier1Int codes every block job from the reversible coefficient planes
// through the shared work queue; a non-nil rd gets each block's R-D
// ladder and hull (codeBlock).
func (p *Pipeline) Tier1Int(planes []*imgmodel.Plane, jobs []BlockJob, mode t1.Mode, rd []rate.BlockRD) []*t1.Block {
	blocks := make([]*t1.Block, len(jobs))
	p.run(tier1Stage(mode), 0, len(jobs), func(i int) {
		j := jobs[i]
		pl := planes[j.Comp]
		blocks[i] = p.codeBlock(pl.Data[j.Y0*pl.Stride+j.X0:], pl.Stride, j, mode, rd, i)
	})
	return blocks
}

// Tier1Float fuses deadzone quantization into each Tier-1 block job:
// a job quantizes its own w×h region into pooled scratch and entropy
// codes it, so quantization and Tier-1 flow through the same queue
// (the paper's load-balancing scheme) with no intermediate full-size
// integer planes. Elementwise identical to quantize-then-code. As in
// Tier1Int, a non-nil rd gets each block's R-D ladder and hull.
func (p *Pipeline) Tier1Float(fplanes []*imgmodel.FPlane, jobs []BlockJob, opt Options, rd []rate.BlockRD) []*t1.Block {
	mode := opt.Mode()
	blocks := make([]*t1.Block, len(jobs))
	p.run(tier1Stage(mode), 0, len(jobs), func(i int) {
		j := jobs[i]
		fp := fplanes[j.Comp]
		delta := float32(quant.StepFor(opt.BaseDelta, opt.Levels, j.Band.Orient, j.Band.Level))
		buf := getI32(j.W * j.H)
		quant.QuantizeBlock(*buf, j.W, fp.Data[j.Y0*fp.Stride+j.X0:], fp.Stride, j.W, j.H, delta)
		blocks[i] = p.codeBlock(*buf, j.W, j, mode, rd, i)
		putI32(buf)
	})
	return blocks
}

// QuantizePlanes materializes the quantized integer planes from the
// transformed float planes, band-row-parallel — used by the per-tile
// transform (ForwardTransformPipeline); the untiled path fuses
// quantization into Tier1Float instead. Returned planes come from the plane pool.
func (p *Pipeline) QuantizePlanes(fplanes []*imgmodel.FPlane, opt Options) []*imgmodel.Plane {
	w, h := fplanes[0].W, fplanes[0].H
	bands := dwt.Layout(w, h, opt.Levels)
	planes := make([]*imgmodel.Plane, len(fplanes))
	for c := range planes {
		planes[c] = imgmodel.GetPlane(w, h)
	}
	// One job per (component, band); the subbands tile the plane, so
	// every live sample is written.
	p.run(obs.StageQuant, 0, len(planes)*len(bands), func(i int) {
		c, b := i/len(bands), bands[i%len(bands)]
		if b.W == 0 || b.H == 0 {
			return
		}
		pl, fp := planes[c], fplanes[c]
		delta := float32(quant.StepFor(opt.BaseDelta, opt.Levels, b.Orient, b.Level))
		for y := b.Y0; y < b.Y0+b.H; y++ {
			quant.QuantizeRow(pl.Data[y*pl.Stride+b.X0:][:b.W], fp.Data[y*fp.Stride+b.X0:][:b.W], delta)
		}
	})
	return planes
}

// EncodeParallel compresses img with the whole pipeline — MCT, DWT,
// quantization, Tier-1 — spread across `workers` executors, then the
// shared sequential Finish (rate control, Tier-2, framing). The output
// is byte-identical to Encode for every worker count. Tiled streams
// parallelize across tiles instead (EncodeTiled).
func EncodeParallel(img *imgmodel.Image, opt Options, workers int) (*Result, error) {
	return EncodeParallelContext(context.Background(), img, opt, workers)
}

// EncodeParallelContext is EncodeParallel bound to a context: the stage
// work queues check ctx between job claims, so cancellation stops the
// encode within a bounded number of outstanding jobs (at most one per
// worker), releases all pooled buffers, and returns ctx.Err()
// unwrapped. A panic inside any stage worker is contained into a
// *FaultError instead of crossing the API.
func EncodeParallelContext(ctx context.Context, img *imgmodel.Image, opt Options, workers int) (res *Result, err error) {
	if opt.TileW > 0 || opt.TileH > 0 {
		return EncodeTiledContext(ctx, img, opt, workers)
	}
	ctx, op := beginOp(ctx, "encode")
	defer op.end(&err)
	op.classify(obs.ClassOf(false, !opt.Lossless, false, opt.HT))
	if err := validateImage(img); err != nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	countKernel(op.rec)
	opt = opt.WithDefaults(img.W, img.H)
	if _, aerr := op.admit(ctx, workers, obs.StageEncode); aerr != nil {
		return nil, aerr
	}
	p := NewPipelineContext(ctx, workers)
	defer p.Close()
	_, jobs := PlanBlocks(img.W, img.H, len(img.Comps), opt)
	// Rate-constrained encodes build each block's R-D ladder and convex
	// hull inside its Tier-1 job, leaving only the λ search sequential.
	var rd []rate.BlockRD
	if !opt.Lossless && opt.layerRates() != nil {
		rd = make([]rate.BlockRD, len(jobs))
	}
	var blocks []*t1.Block
	if opt.Lossless {
		planes := p.MCTInt(img, opt)
		p.DWT53(planes, opt)
		blocks = p.Tier1Int(planes, jobs, opt.Mode(), rd)
		for _, pl := range planes {
			imgmodel.PutPlane(pl)
		}
	} else {
		fplanes := p.MCTFloat(img, opt)
		p.DWT97(fplanes, opt)
		blocks = p.Tier1Float(fplanes, jobs, opt, rd)
		for _, fp := range fplanes {
			imgmodel.PutFPlane(fp)
		}
	}
	// Stage workers never leave a fault or cancellation behind silently:
	// the drain loops stop claiming, the pooled planes above are already
	// returned, and the first recorded error surfaces here before the
	// sequential finish would touch possibly-missing blocks.
	if perr := p.Err(); perr != nil {
		return nil, perr
	}
	return finish(p.rec, img, opt, jobs, blocks, rd), nil
}

// countKernel records which simd kernel set serves an encode; the
// counter shows up in MetricsTable/expvar so a perf report can tell
// scalar, SSE2, and AVX2 runs apart.
func countKernel(rec *obs.Recorder) {
	if ctr, ok := obs.KernelCounter(simd.Kernel()); ok {
		rec.Add(ctr, 1)
	}
}
