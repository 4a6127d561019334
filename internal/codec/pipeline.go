package codec

import (
	"context"
	"errors"
	"runtime"
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

// Pipeline runs the native encode path as explicit stages, with
// helpers from the shared scheduler, the Go analogue of the paper's
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
// for the helpers draining its stages, but its stages are run from one
// goroutine, and it is not reused across operations.
type Pipeline struct {
	workers int
	ctx     context.Context
	done    <-chan struct{} // ctx.Done(), cached (nil for Background)
	rec     *obs.Recorder   // the context's operation recorder, resolved once (nil: none)

	// Scheduler binding (DESIGN.md §12), nil for single-worker
	// pipelines: multi-worker stages take helper tokens from it. helped
	// records that a stage was eligible for helpers, so the scheduler
	// counts each pipeline once (its lanes-opened counter).
	sched  *Scheduler
	helped bool

	aborted atomic.Bool // fast stop flag checked between job claims
	mu      sync.Mutex
	err     error // first stage fault or injected error
}

// NewPipeline returns a pipeline that runs its stages on up to
// `workers` executors (minimum 1; 1 means run inline), without
// cancellation (context.Background). Multi-worker stages take their
// helpers from the process-default scheduler.
func NewPipeline(workers int) *Pipeline {
	return NewPipelineContext(context.Background(), workers)
}

// NewPipelineContext is NewPipeline bound to a context: the drain loop
// checks ctx between jobs, so cancellation or a deadline stops the
// encode/decode within a bounded number of outstanding jobs (at most
// one per worker) and the operation returns ctx.Err(). The
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
// and resume draining. Only runDemoting calls it, between run calls
// (no workers in flight).
func (p *Pipeline) clearFault() {
	p.mu.Lock()
	p.err = nil
	p.mu.Unlock()
	p.aborted.Store(false)
}

// runDemoting is the one fault-demotion policy of the best-effort
// decode, shared by the Tier-1 stage and the tile stage. It drains
// stage st's n jobs; when a contained fault (*FaultError) stops the
// drain, demote conceals the faulted job's work — marking it done, so
// the job returns at once when rerun — the latch is cleared and the
// stage reruns. Each rerun either finishes or demotes one fault, and a
// fault demotes at most one job, so n reruns bound any terminating
// sequence; four more absorb faults that land on done jobs. storm is
// the last fault when that budget runs out, and the caller abandons
// whatever is left. err is the pipeline's error for cancellation or a
// non-fault failure, which are not demoted.
func (p *Pipeline) runDemoting(st obs.Stage, n int, job func(i int), demote func(fe *FaultError)) (storm *FaultError, err error) {
	var fe *FaultError
	for attempt := 0; attempt <= n+4; attempt++ {
		p.run(st, 0, n, job)
		perr := p.Err()
		if perr == nil {
			return nil, nil
		}
		if !errors.As(perr, &fe) || p.ctx.Err() != nil {
			return nil, perr
		}
		demote(fe)
		p.clearFault()
	}
	return fe, nil
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
// unit. The calling goroutine always drains; on a multi-worker
// pipeline with more than one job it also starts helpers with tokens
// from the scheduler (DESIGN.md §12), so the stage completes even when
// every helper is busy elsewhere.
//
// Every job is bracketed by an observability span (stage st, stage
// argument arg — e.g. the DWT level — and the job index) on the claiming
// executor's lane, and each claim is counted per lane; with
// observability disabled the extra work per job is a nil check.
//
// Each claim first checks the pipeline's stop state (contained fault or
// context cancellation), so an aborting drain completes within one
// outstanding job per executor, and every job body runs under the
// containment wrapper (Pipeline.job). run returns after every helper
// has finished — the stage barrier — with the pipeline's error so
// stages can short-circuit; a stopped pipeline drains subsequent run
// calls immediately.
func (p *Pipeline) run(st obs.Stage, arg int32, n int, fn func(i int)) error {
	if n <= 0 || p.stopped() {
		return p.Err()
	}
	p.rec.Add(obs.CtrQueueRuns, 1)
	p.rec.Add(obs.CtrQueueJobs, int64(n))
	s := &stage{p: p, st: st, arg: arg, n: int64(n), fn: fn}
	if p.sched != nil && n > 1 {
		s.maxHelpers = min(p.workers, n) - 1
		if !p.helped {
			p.helped = true
			p.sched.lanesOpened.Add(1)
		}
	}
	s.drain(false)
	s.wg.Wait()
	return p.Err()
}

// stage is one run call's work queue: the cursor every executor claims
// jobs from, and the helpers the owner started on it.
type stage struct {
	p    *Pipeline
	st   obs.Stage
	arg  int32
	n    int64
	fn   func(int)
	next atomic.Int64 // next job index to claim

	maxHelpers int // 0: the stage runs inline
	helpers    int // helpers started; the owner alone touches it
	wg         sync.WaitGroup
}

// drain claims and runs jobs until the cursor is exhausted or the
// pipeline stops. It is the one drain loop: the owner (helper false)
// runs it inline and tops its helpers up before each of its claims;
// each helper runs it on a goroutine of its own and returns its token
// when it ends. Spans and counters go to the operation's own
// recorder whichever goroutine claims.
func (s *stage) drain(helper bool) {
	p, rec := s.p, s.p.rec
	ln := rec.Acquire()
	lane := 0
	if s.maxHelpers > 0 {
		lane = execLane(ln)
	}
	for !p.stopped() {
		if !helper {
			s.topUp()
		}
		i := s.next.Add(1) - 1
		if i >= s.n {
			break
		}
		switch {
		case helper:
			p.sched.poolClaims.Add(1)
			rec.Add(obs.CtrSchedPoolClaims, 1)
		case s.maxHelpers > 0:
			rec.Add(obs.CtrSchedSelfClaims, 1)
		}
		ln.Claim()
		sp := ln.Begin(s.st, s.arg, int32(i))
		p.job(s.st, s.arg, lane, int(i), s.fn)
		sp.End()
	}
	ln.Release()
}

// topUp starts one helper per free helper token while the stage has
// fewer than maxHelpers and at least two jobs remain unclaimed.
func (s *stage) topUp() {
	started := s.helpers
fill:
	for s.helpers < s.maxHelpers && s.n-s.next.Load() >= 2 {
		select {
		case s.p.sched.helpers <- struct{}{}:
		default:
			break fill
		}
		s.helpers++
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.drain(true)
			<-s.p.sched.helpers
		}()
	}
	if s.helpers > started && len(s.p.sched.slots) <= 1 {
		// The newest helper waits in this P's next-to-run slot, which
		// an idle P steals only after a sleep of some 50 µs on Linux.
		// When this is the only admitted operation, other Ps are likely
		// idle: yielding runs the helper here at once and puts the
		// owner on the global run queue, where the P woken for the new
		// goroutine takes it without that sleep. With other operations
		// running, the Ps are busy and a yield would only cede this
		// one to them.
		runtime.Gosched()
	}
}

// Scratch pools for stripe-sized transients (DWT aux rows, horizontal
// line buffers, per-block quantizer output), one per sample type.
// Contents are unspecified; every user writes before reading.
var (
	i32Pool sync.Pool // *[]int32
	f32Pool sync.Pool // *[]float32
)

// scratchPool returns the pool of T's scratch slices.
func scratchPool[T imgmodel.Sample]() *sync.Pool {
	var zero T
	if _, ok := any(zero).(int32); ok {
		return &i32Pool
	}
	return &f32Pool
}

// getScratch returns an n-sample scratch slice from T's pool.
func getScratch[T imgmodel.Sample](n int) *[]T {
	p, _ := scratchPool[T]().Get().(*[]T)
	if p == nil {
		s := make([]T, n)
		return &s
	}
	if cap(*p) < n {
		*p = make([]T, n)
	} else {
		*p = (*p)[:n]
	}
	return p
}

// putScratch recycles a slice from getScratch.
func putScratch[T imgmodel.Sample](p *[]T) { scratchPool[T]().Put(p) }

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
// shift) stripe-parallel. The components may be views (a tile of a
// larger image) whose stride differs from the working planes', so the
// copy goes row by row, img.W samples each. The returned planes come
// from the imgmodel plane pool; the caller releases them with
// imgmodel.Put once Tier-1 has consumed them.
func (p *Pipeline) MCTInt(img *imgmodel.Image, opt Options) []*imgmodel.Plane {
	w, h := img.W, img.H
	planes := make([]*imgmodel.Plane, len(img.Comps))
	for c := range planes {
		planes[c] = imgmodel.Get[int32](w, h)
	}
	useMCT := len(planes) == 3
	p.run(obs.StageMCT, 0, stripes(h), func(s int) {
		y0, y1 := stripeBounds(s, h)
		for c, pl := range planes {
			src := img.Comps[c]
			for y := y0; y < y1; y++ {
				copy(pl.Row(y), src.Row(y))
			}
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
// caller releases the planes with imgmodel.Put.
func (p *Pipeline) MCTFloat(img *imgmodel.Image, opt Options) []*imgmodel.FPlane {
	w, h := img.W, img.H
	fplanes := make([]*imgmodel.FPlane, len(img.Comps))
	for c := range fplanes {
		fplanes[c] = imgmodel.Get[float32](w, h)
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

// levelPlan computes the per-level geometry of a w×h plane, finest
// level first; both walks read it, the inverse from the coarsest level
// down. Column groups follow the paper's tuning: cache-line multiples
// sized so each worker gets roughly one group per component per level.
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

// forwardDWT runs k's multi-level analysis over all planes: per level,
// the vertical phase over column groups, then the horizontal phase
// over row stripes — vertical first, as in the paper's pipeline.
// Bit-identical to dwt.Forward53/97 on each plane.
func forwardDWT[T imgmodel.Sample](p *Pipeline, k dwt.Lifting[T], planes []*imgmodel.Samples[T], levels int) {
	for l, lv := range p.levelPlan(planes[0].W, planes[0].H, levels) {
		verticalPhase(p, obs.StageDWTVert, l, lv, planes, k.Vertical)
		horizontalPhase(p, obs.StageDWTHorz, l, lv, planes, k.Rows)
	}
}

// inverseDWT undoes levels levels-1 down to stop of k's transform over
// all planes: per level, the horizontal synthesis first, then the
// vertical — the exact reverse of forwardDWT's phase order, with the
// same barriers. With stop > 0 the finest stop levels stay
// transformed. Bit-identical to dwt.InverseLevels53/97 on each plane.
func inverseDWT[T imgmodel.Sample](p *Pipeline, k dwt.Lifting[T], planes []*imgmodel.Samples[T], levels, stop int) {
	plan := p.levelPlan(planes[0].W, planes[0].H, levels)
	for l := len(plan) - 1; l >= stop; l-- {
		horizontalPhase(p, obs.StageIDWTHorz, l, plan[l], planes, k.InvRows)
		verticalPhase(p, obs.StageIDWTVert, l, plan[l], planes, k.InvVertical)
	}
}

// verticalPhase runs one level's vertical filter as one job per
// (plane, column group); a level one row high has none.
func verticalPhase[T imgmodel.Sample](p *Pipeline, st obs.Stage, l int, lv dwtLevel, planes []*imgmodel.Samples[T],
	filter func(data []T, x0, cw, lh, stride int, aux []T)) {
	if lv.lh <= 1 {
		return
	}
	nc := len(lv.chunks)
	p.run(st, int32(l), nc*len(planes), func(i int) {
		pl, ch := planes[i/nc], lv.chunks[i%nc]
		aux := getScratch[T](dwt.AuxLen(ch.W, lv.lh))
		filter(pl.Data, ch.X0, ch.W, lv.lh, pl.Stride, *aux)
		putScratch(aux)
		p.rec.Add(obs.CtrDWTBytesMoved, int64(ch.W)*int64(lv.lh)*8)
	})
}

// horizontalPhase runs one level's horizontal filter as one job per
// (plane, row stripe); a level one column wide has none.
func horizontalPhase[T imgmodel.Sample](p *Pipeline, st obs.Stage, l int, lv dwtLevel, planes []*imgmodel.Samples[T],
	filter func(data []T, lw, stride, y0, y1 int, tmp []T)) {
	if lv.lw <= 1 {
		return
	}
	ns := stripes(lv.lh)
	p.run(st, int32(l), ns*len(planes), func(i int) {
		pl := planes[i/ns]
		y0, y1 := stripeBounds(i%ns, lv.lh)
		tmp := getScratch[T](lv.lw)
		filter(pl.Data, lv.lw, pl.Stride, y0, y1, *tmp)
		putScratch(tmp)
		p.rec.Add(obs.CtrDWTBytesMoved, int64(y1-y0)*int64(lv.lw)*8)
	})
}

// DWT53 runs the reversible multi-level transform over all components
// (forwardDWT with the 5/3 kernels).
func (p *Pipeline) DWT53(planes []*imgmodel.Plane, opt Options) {
	forwardDWT(p, dwt.Lifting53, planes, opt.Levels)
}

// DWT97 is the irreversible analogue of DWT53.
func (p *Pipeline) DWT97(fplanes []*imgmodel.FPlane, opt Options) {
	forwardDWT(p, dwt.Lifting97, fplanes, opt.Levels)
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
		buf := getScratch[int32](j.W * j.H)
		quant.QuantizeBlock(*buf, j.W, fp.Data[j.Y0*fp.Stride+j.X0:], fp.Stride, j.W, j.H, delta)
		blocks[i] = p.codeBlock(*buf, j.W, j, mode, rd, i)
		putScratch(buf)
	})
	return blocks
}

// QuantizePlanes materializes the quantized integer planes from the
// transformed float planes, band-row-parallel, for callers that time
// quantization apart from Tier-1; Encode fuses quantization into
// Tier1Float instead. Returned planes come from the plane pool.
func (p *Pipeline) QuantizePlanes(fplanes []*imgmodel.FPlane, opt Options) []*imgmodel.Plane {
	w, h := fplanes[0].W, fplanes[0].H
	bands := dwt.Layout(w, h, opt.Levels)
	planes := make([]*imgmodel.Plane, len(fplanes))
	for c := range planes {
		planes[c] = imgmodel.Get[int32](w, h)
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

// countKernel records which simd kernel set serves an encode; the
// counter shows up in MetricsTable/expvar so a perf report can tell
// scalar and SSE2 runs apart.
func countKernel(rec *obs.Recorder) {
	if ctr, ok := obs.KernelCounter(simd.Kernel()); ok {
		rec.Add(ctr, 1)
	}
}
