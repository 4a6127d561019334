// Package obs is the codec's observability layer. Each observed
// operation gets one Recorder (WithOperation) holding its per-stage,
// per-worker spans, its work-queue and coder counters, and its single
// outcome; the process-wide Registry holds every duration histogram.
// It costs nearly nothing when no operation is in scope.
//
// The paper's core evidence is an execution-time breakdown per pipeline
// stage (Section 5, Table 2 / Figure 6) — it is how Kang & Bader found
// the sequential PCRD rate-control tail that flattens the Figure 5
// scaling curve, and how they proved the fused DWT beat the bandwidth
// wall. This package gives the Go port the same instruments: every
// pipeline stage (MCT, DWT per level and direction, quantization,
// Tier-1 block jobs, PCRD hull/search, Tier-2 assembly, framing)
// records spans into per-lane buffers that merge into a Chrome
// `chrome://tracing` timeline and an Amdahl report (serial fraction,
// speedup bound, achieved parallelism); each span's duration also
// lands in the registry's stage histogram. Counters track the
// quantities the paper tables: work-queue jobs and per-worker claim
// counts, Tier-1 scan/decision ops and MQ renormalization chunks,
// bytes moved per DWT pass (the DMA-traffic analogue), and PCRD hull
// and probe volume. Finish rolls an operation's counters and outcome
// into the registry exactly once.
//
// Design rule (pinned by TestDisabledPathIsAllocationFree and
// BenchmarkEncodeObsOverhead): every method is safe on a nil *Recorder
// or *Lane, and with no operation recorder in scope every hook reduces
// to a nil check and a branch — no time reads, no allocation, no
// atomic read-modify-write.
package obs

import (
	"context"
	"runtime/trace"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage for spans and histograms.
type Stage uint8

// Pipeline stages, in rough execution order.
const (
	StageMCT      Stage = iota // level shift + component transform (row stripes)
	StageDWTVert               // vertical lifting of one level (column groups)
	StageDWTHorz               // horizontal filtering of one level (row stripes)
	StageQuant                 // standalone quantization (Pipeline.QuantizePlanes)
	StageT1                    // fused quantize + Tier-1 block job
	StageHull                  // R-D ladder + convex hull (when not fused into T1)
	StageRate                  // PCRD λ search (truncation-scan probes)
	StageT2                    // Tier-2: packet assembly (encode), packet parse (decode)
	StageFrame                 // codestream framing
	StageTile                  // whole-tile job envelope (tiled encodes/decodes)
	StageEncode                // whole-encode envelope (coordinator lane)
	StageZero                  // decode: pooled-plane clearing (row stripes)
	StageDeq                   // decode: dequantization (per component × band)
	StageIDWTVert              // decode: vertical inverse lifting (column groups)
	StageIDWTHorz              // decode: horizontal inverse filtering (row stripes)
	StageIMCT                  // decode: inverse component transform + clamp (row stripes)
	StageDecode                // whole-decode envelope (coordinator lane)
	StageT1HT                  // Tier-1 block jobs through the HT (Part 15) coder
	StageAdmit                 // scheduler admission-queue wait (coordinator lane)
	StageParse                 // decode: JP2 unwrap + main-header/tile-part parse (coordinator lane)
	numStages
)

var stageNames = [numStages]string{
	"mct", "dwt-v", "dwt-h", "quant", "t1", "hull",
	"rate", "t2", "frame", "tile", "encode",
	"zero", "deq", "idwt-v", "idwt-h", "imct", "decode",
	"t1ht", "admit", "parse",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// envelope reports whether spans of this stage enclose other stages'
// spans (and so must not contribute to busy/concurrency accounting).
func (s Stage) envelope() bool { return s == StageTile || s == StageEncode || s == StageDecode }

// Counter identifies one global atomic counter.
type Counter uint8

// Counters. DWTBytesMoved is the Go analogue of the paper's DMA-traffic
// accounting: bytes read + written by the lifting kernels per pass
// (Section 3.2 prices the fused DWT by exactly this quantity).
const (
	CtrQueueRuns       Counter = iota // parallel work-queue drains
	CtrQueueJobs                      // jobs pushed through the queue
	CtrT1Blocks                       // code blocks entropy coded
	CtrT1Scanned                      // Tier-1 coefficients examined
	CtrT1Coded                        // Tier-1 MQ decisions coded
	CtrMQRenorms                      // MQ renormalization chunks (batched shifts)
	CtrDWTBytesMoved                  // bytes read+written by DWT lifting passes
	CtrRateProbes                     // PCRD λ-bisection probes
	CtrHulls                          // convex hulls computed
	CtrFaultPanics                    // worker panics contained into typed FaultErrors
	CtrHTBlocks                       // code blocks coded by the HT (Part 15) coder
	CtrHTBytes                        // bytes emitted by the HT coder (all streams + trailers)
	CtrSchedSelfClaims                // shared-scheduler jobs claimed by the operation's own goroutine
	CtrSchedPoolClaims                // shared-scheduler jobs claimed by stage helpers (shared capacity)
	CtrSchedAdmitWaits                // operations that waited in the scheduler admission queue
	CtrResyncs                        // SOP/SOT resyncs performed by best-effort decodes
	CtrConcealedBlocks                // code blocks concealed as zeros by best-effort decodes
	numCounters
)

var counterNames = [numCounters]string{
	"queue_runs", "queue_jobs",
	"t1_blocks", "t1_scanned", "t1_coded", "mq_renorm_chunks",
	"dwt_bytes_moved",
	"rate_probes", "hulls",
	"fault_contained_panics",
	"ht_blocks", "ht_bytes",
	"sched_self_claims", "sched_pool_claims", "sched_admit_waits",
	"resync", "concealed_blocks",
}

func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "counter?"
}

// maxSpansPerLane bounds one lane's span buffer; past it, new spans are
// dropped and counted (a 3072²×3 encode records ~10k spans total, far
// below the cap).
const maxSpansPerLane = 1 << 15

// Recorder is one observed operation (WithOperation): its trace ID
// and kind, the lanes its spans land in, its counters, and its single
// outcome. Stage-duration histograms live only in the aggregate
// Registry, which Span.End observes directly; Finish rolls the
// counters and the outcome in. All methods are nil-receiver safe so
// callers can hold a possibly-nil *Recorder without branching.
type Recorder struct {
	epoch time.Time
	ctx   context.Context // carries the runtime/trace task for regions

	trace string
	kind  string
	reg   *Registry // the registry spans observe into and Finish rolls into

	mu      sync.Mutex
	lanes   []*Lane // every lane ever created, in id order
	free    []*Lane // released lanes (LIFO, so worker w usually keeps lane w)
	outcome Outcome

	counters [numCounters]atomic.Int64
	dropped  atomic.Int64
	finished atomic.Bool
	endTask  func()
}

// newRecorder returns an in-flight operation recorder bound to reg.
// When the Go execution tracer is running, it opens a runtime/trace
// task named after the operation's kind, so stage regions group under
// one operation in `go tool trace`.
func newRecorder(reg *Registry, kind string) *Recorder {
	r := &Recorder{epoch: time.Now(), ctx: context.Background(), kind: kind, reg: reg}
	r.trace = reg.nextTraceID()
	reg.active.Add(1)
	if trace.IsEnabled() {
		ctx, task := trace.NewTask(r.ctx, kind)
		r.ctx, r.endTask = ctx, task.End
	}
	return r
}

// TraceID returns the operation's minted trace ID.
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.trace
}

// Kind returns the operation's label.
func (r *Recorder) Kind() string {
	if r == nil {
		return ""
	}
	return r.kind
}

// Add adds v to counter c. Safe on a nil recorder.
func (r *Recorder) Add(c Counter, v int64) {
	if r != nil {
		r.counters[c].Add(v)
	}
}

// Counter reads one counter.
func (r *Recorder) Counter(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// Acquire leases a lane for the calling goroutine. Lanes are recycled
// LIFO, so a worker pool of stable width keeps stable lane ids — one
// timeline track per worker. Safe on a nil recorder (returns nil).
func (r *Recorder) Acquire() *Lane {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		l := r.free[n-1]
		r.free = r.free[:n-1]
		return l
	}
	l := &Lane{rec: r, id: len(r.lanes)}
	r.lanes = append(r.lanes, l)
	return l
}

// Release returns a lane to the recorder's free list. Safe on nil.
func (l *Lane) Release() {
	if l == nil {
		return
	}
	r := l.rec
	r.mu.Lock()
	r.free = append(r.free, l)
	r.mu.Unlock()
}

// Lane is a span buffer owned by exactly one goroutine at a time
// (between Acquire and Release). A nil *Lane is a valid disabled lane:
// Begin/End/Claim on it are branch-only no-ops.
type Lane struct {
	rec    *Recorder
	id     int
	spans  []spanRec
	claims int64 // work-queue jobs claimed by this lane
}

// ID returns the lane index (the timeline track).
func (l *Lane) ID() int {
	if l == nil {
		return -1
	}
	return l.id
}

// Claim counts one work-queue job claimed by this lane.
func (l *Lane) Claim() {
	if l != nil {
		l.claims++
	}
}

// spanRec is the compact in-buffer span record.
type spanRec struct {
	start, end int64 // ns since recorder epoch
	arg, idx   int32 // stage argument (e.g. DWT level) and job index
	stage      Stage
}

// Span is an in-flight span token returned by Begin. The zero Span
// (from a nil lane) is valid and End on it is a no-op.
type Span struct {
	ln    *Lane
	reg   *trace.Region
	start int64
	arg   int32
	idx   int32
	stage Stage
}

// Begin opens a span on the lane: stage, a stage argument (DWT level,
// tile index — whatever disambiguates), and the job index. On a nil
// lane it returns the zero Span without reading the clock.
func (l *Lane) Begin(stage Stage, arg, idx int32) Span {
	if l == nil {
		return Span{}
	}
	s := Span{ln: l, start: int64(time.Since(l.rec.epoch)), arg: arg, idx: idx, stage: stage}
	if trace.IsEnabled() {
		s.reg = trace.StartRegion(l.rec.ctx, stage.String())
	}
	return s
}

// End closes the span, appending it to the lane buffer and observing
// its duration in the registry's stage histogram — once per span, a
// span dropped from a full lane included.
func (s Span) End() {
	l := s.ln
	if l == nil {
		return
	}
	if s.reg != nil {
		s.reg.End()
	}
	end := int64(time.Since(l.rec.epoch))
	if len(l.spans) >= maxSpansPerLane {
		l.rec.dropped.Add(1)
	} else {
		l.spans = append(l.spans, spanRec{start: s.start, end: end, arg: s.arg, idx: s.idx, stage: s.stage})
	}
	l.rec.reg.hist[s.stage].Observe(end - s.start)
}

// Dropped reports how many spans overflowed lane buffers.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// LaneClaims returns the per-lane work-queue claim counts — the
// paper's per-SPE work-distribution view. Index is lane id.
func (r *Recorder) LaneClaims() []int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int64, len(r.lanes))
	for i, l := range r.lanes {
		out[i] = l.claims
	}
	return out
}

// Counters returns a name → value map of every non-zero counter.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64, numCounters)
	for c := Counter(0); c < numCounters; c++ {
		if v := r.counters[c].Load(); v != 0 {
			out[c.String()] = v
		}
	}
	return out
}

// TSpans flattens every lane's spans into exported timeline spans with
// nanosecond timestamps, one track per lane ("worker0", "worker1", …).
// Call it only after the instrumented work has finished (lanes are read
// unlocked; concurrent Begin/End would race).
func (r *Recorder) TSpans() []TSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	lanes := append([]*Lane(nil), r.lanes...)
	r.mu.Unlock()
	var out []TSpan
	for _, l := range lanes {
		for _, s := range l.spans {
			out = append(out, TSpan{
				Track: "worker" + itoa(l.id),
				Name:  spanName(s.stage, s.arg, s.idx),
				Stage: s.stage,
				Start: s.start,
				End:   s.end,
			})
		}
	}
	return out
}

// spanName renders a stage plus its argument ("dwt-v L2", "tile 3").
func spanName(st Stage, arg, idx int32) string {
	switch st {
	case StageDWTVert, StageDWTHorz, StageIDWTVert, StageIDWTHorz:
		return st.String() + " L" + itoa(int(arg))
	case StageTile:
		return "tile " + itoa(int(idx))
	default:
		return st.String()
	}
}

// itoa is a minimal positive-int formatter (avoids strconv in the name
// path for readability only — this runs at export time, not encode
// time).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	if v < 0 {
		return "-" + itoa(-v)
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
