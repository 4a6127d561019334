// Shared process-wide worker pool with per-operation lanes, fair
// scheduling, and admission control (DESIGN.md §12).
//
// The paper keeps a fixed set of hardware workers (the SPEs) saturated
// by one global work queue. The Scheduler is that shape process-wide:
// one pool of ~GOMAXPROCS workers multiplexes the job streams (lanes)
// of all in-flight operations, rotating round-robin over the lanes. It
// is the only way a codec stage gets more than one executor; a
// single-worker pipeline runs its stages inline.
//
// Key invariants:
//
//   - Byte identity: a lane's stage is one atomically-claimed job
//     queue; only the identity of the goroutines draining it varies.
//     Stage barriers and job bodies do not depend on the pool, so
//     per-operation output is byte-identical to the inline path at
//     every pool width (DESIGN.md §5, extended pool-wide in §12).
//   - No cross-op stalls: pool workers never block on a lane. A
//     canceled or faulted operation flips its own pipeline's stop latch;
//     its remaining claims drain to no-ops and its stage closes, while
//     sibling lanes keep being served.
//   - Liveness without the pool: the goroutine that submits a stage
//     also drains it, so every operation always has at least one
//     dedicated executor even when pool workers are busy elsewhere, and
//     the pool can never deadlock an operation.
//   - Bounded goroutines: pool workers spawn when the first lane opens
//     and exit when the last lane closes, so an idle process holds zero
//     scheduler goroutines (the fault-matrix leak pins stay valid).
package codec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"j2kcell/internal/obs"
)

// ErrOverloaded is returned by the encode/decode entry points when the
// shared scheduler's admission queue is full: the process already runs
// MaxActive operations and MaxQueue more are waiting. The operation was
// not started; callers should shed load or retry with backoff.
var ErrOverloaded = errors.New("codec: scheduler overloaded: admission queue full")

// schedCtxKey carries an explicit scheduler binding on a context.
type schedCtxKey struct{}

// WithScheduler binds every operation started under ctx to s. A nil s
// means the process default, as if no binding were present.
func WithScheduler(ctx context.Context, s *Scheduler) context.Context {
	return context.WithValue(ctx, schedCtxKey{}, s)
}

// schedulerFor resolves the scheduler for an operation: a non-nil
// context binding wins, otherwise the process default (a nil ctx
// included). Both admission (admitOp) and the pipeline resolve through
// it, so an operation always runs on the scheduler it was admitted to.
// Single-worker operations get nil: their stages run inline and take
// no admission slot.
func schedulerFor(ctx context.Context, workers int) *Scheduler {
	if workers <= 1 {
		return nil
	}
	if ctx != nil {
		if s, _ := ctx.Value(schedCtxKey{}).(*Scheduler); s != nil {
			return s
		}
	}
	return DefaultScheduler()
}

// SchedConfig configures a Scheduler. Zero fields take defaults:
// Workers = GOMAXPROCS, MaxActive = 8×Workers (min 8), MaxQueue =
// 4×MaxActive.
type SchedConfig struct {
	Workers   int // pool width (goroutines when any lane is open)
	MaxActive int // operations admitted concurrently
	MaxQueue  int // operations waiting for admission before ErrOverloaded
}

// Scheduler is a process-wide pool of workers multiplexing the job
// streams of many concurrent operations. Operations enter through
// Admit (bounded queue, backpressure), open a lane per pipeline, and
// submit each stage to the pool; the submitting goroutine always helps
// drain its own stage, so the pool is shared extra capacity, never a
// dependency.
type Scheduler struct {
	width     int
	maxActive int
	maxQueue  int

	mu      sync.Mutex
	cond    *sync.Cond // pool workers wait here for runnable lanes
	lanes   []*schedLane
	rr      int // round-robin cursor over lanes
	spawned int // live pool workers

	active int            // admitted operations
	queue  []*admitWaiter // FIFO admission queue

	// Monotone counters and gauges for /metrics and Stats.
	lanesOpened  atomic.Int64
	laneSwitches atomic.Int64 // pool worker moved to a different lane
	poolClaims   atomic.Int64
	admitWaits   atomic.Int64
	admitRejects atomic.Int64
}

// NewScheduler builds a Scheduler from cfg (zero fields take the
// documented defaults). The pool spawns no goroutines until a lane
// opens.
func NewScheduler(cfg SchedConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 8 * cfg.Workers
		if cfg.MaxActive < 8 {
			cfg.MaxActive = 8
		}
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxActive
	}
	s := &Scheduler{
		width:     cfg.Workers,
		maxActive: cfg.MaxActive,
		maxQueue:  cfg.MaxQueue,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

var (
	defaultSchedOnce sync.Once
	defaultSched     *Scheduler
)

// DefaultScheduler returns the process-wide shared scheduler,
// constructing it (and registering its /metrics gauges) on first use.
func DefaultScheduler() *Scheduler {
	defaultSchedOnce.Do(func() {
		defaultSched = NewScheduler(SchedConfig{})
		defaultSched.registerMetrics()
	})
	return defaultSched
}

// registerMetrics exposes the scheduler's gauges and counters through
// the obs exposition (obs.RegisterMetrics dedupes by name, so only the
// first scheduler to register — the process default — is exported).
func (s *Scheduler) registerMetrics() {
	obs.RegisterMetrics(
		obs.ExternalMetric{Name: "j2k_scheduler_workers", Help: "Live shared-pool worker goroutines.", Type: "gauge",
			Read: func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return int64(s.spawned) }},
		obs.ExternalMetric{Name: "j2k_scheduler_lanes_open", Help: "Operation lanes currently open on the shared pool.", Type: "gauge",
			Read: func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return int64(len(s.lanes)) }},
		obs.ExternalMetric{Name: "j2k_scheduler_active_ops", Help: "Operations admitted and running.", Type: "gauge",
			Read: func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return int64(s.active) }},
		obs.ExternalMetric{Name: "j2k_scheduler_queue_depth", Help: "Operations waiting in the admission queue.", Type: "gauge",
			Read: func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return int64(len(s.queue)) }},
		obs.ExternalMetric{Name: "j2k_scheduler_lanes_opened_total", Help: "Lanes opened on the shared pool.", Type: "counter",
			Read: s.lanesOpened.Load},
		obs.ExternalMetric{Name: "j2k_scheduler_lane_switches_total", Help: "Pool worker moves between lanes (fairness rotations).", Type: "counter",
			Read: s.laneSwitches.Load},
		obs.ExternalMetric{Name: "j2k_scheduler_pool_claims_total", Help: "Jobs claimed by shared-pool workers across all lanes.", Type: "counter",
			Read: s.poolClaims.Load},
		obs.ExternalMetric{Name: "j2k_scheduler_admit_waits_total", Help: "Operations that waited in the admission queue.", Type: "counter",
			Read: s.admitWaits.Load},
		obs.ExternalMetric{Name: "j2k_scheduler_admit_rejects_total", Help: "Operations rejected with ErrOverloaded.", Type: "counter",
			Read: s.admitRejects.Load},
	)
}

// SchedStats is a snapshot of scheduler state for tests, the Amdahl
// report, and the j2kload summary line.
type SchedStats struct {
	Workers      int // configured pool width
	WorkersLive  int // pool goroutines currently running
	LanesOpen    int
	ActiveOps    int
	QueueDepth   int
	LanesOpened  int64
	LaneSwitches int64
	PoolClaims   int64
	AdmitWaits   int64
	AdmitRejects int64
}

// Stats returns a consistent snapshot of the scheduler's state.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	st := SchedStats{
		Workers:     s.width,
		WorkersLive: s.spawned,
		LanesOpen:   len(s.lanes),
		ActiveOps:   s.active,
		QueueDepth:  len(s.queue),
	}
	s.mu.Unlock()
	st.LanesOpened = s.lanesOpened.Load()
	st.LaneSwitches = s.laneSwitches.Load()
	st.PoolClaims = s.poolClaims.Load()
	st.AdmitWaits = s.admitWaits.Load()
	st.AdmitRejects = s.admitRejects.Load()
	return st
}

// ---------------------------------------------------------------------------
// Admission control

// admitWaiter is one operation parked in the admission queue. granted
// and canceled are guarded by the scheduler mutex and resolve the race
// between a slot handoff and a context cancellation: whichever side
// commits first under the lock wins, and a slot granted to an already-
// canceled waiter is passed on to the next one.
type admitWaiter struct {
	ch       chan struct{}
	granted  bool
	canceled bool
}

// Admit reserves an operation slot, blocking in a bounded FIFO queue
// when MaxActive operations are already running. It returns a release
// func the operation must call exactly once when it finishes (the
// entry points defer it). When the queue is full it fails fast with
// ErrOverloaded; when ctx is canceled while queued it returns ctx.Err().
// Queue wait is recorded as an "admit" stage span on the operation's
// recorder, so it lands in the per-op SLO histograms and the Amdahl
// report's serial window.
func (s *Scheduler) Admit(ctx context.Context, rec *obs.Recorder) (release func(), err error) {
	s.mu.Lock()
	if s.active < s.maxActive {
		s.active++
		s.mu.Unlock()
		return s.release, nil
	}
	if len(s.queue) >= s.maxQueue {
		s.mu.Unlock()
		s.admitRejects.Add(1)
		return nil, ErrOverloaded
	}
	w := &admitWaiter{ch: make(chan struct{})}
	s.queue = append(s.queue, w)
	s.mu.Unlock()

	s.admitWaits.Add(1)
	rec.Add(obs.CtrSchedAdmitWaits, 1)
	ln := rec.Acquire()
	sp := ln.Begin(obs.StageAdmit, 0, 0)
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-w.ch:
		sp.End()
		ln.Release()
		return s.release, nil
	case <-done:
		sp.End()
		ln.Release()
		s.mu.Lock()
		if w.granted {
			// The slot was handed over concurrently with cancellation;
			// give it back so the count stays balanced.
			s.mu.Unlock()
			s.release()
		} else {
			w.canceled = true
			// Splice the entry out eagerly so it stops holding queue
			// capacity against later arrivals.
			for i, q := range s.queue {
				if q == w {
					s.queue = append(s.queue[:i], s.queue[i+1:]...)
					break
				}
			}
			s.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

// admitOp is the entry-point admission hook: resolve the operation's
// scheduler and reserve a slot on it. Single-worker operations have no
// scheduler and pass through with a no-op release. The returned
// release must be called exactly once.
func admitOp(ctx context.Context, workers int, rec *obs.Recorder) (release func(), err error) {
	s := schedulerFor(ctx, workers)
	if s == nil {
		return func() {}, nil
	}
	return s.Admit(ctx, rec)
}

// release returns an operation slot, handing it to the first
// still-waiting queued operation if any.
func (s *Scheduler) release() {
	s.mu.Lock()
	for len(s.queue) > 0 {
		w := s.queue[0]
		s.queue = s.queue[1:]
		if w.canceled {
			continue
		}
		w.granted = true
		close(w.ch)
		s.mu.Unlock()
		return
	}
	s.active--
	s.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Lanes and stage runs

// schedLane is one operation's job stream on the pool. cur points at
// the stage currently submitted (nil between stages).
type schedLane struct {
	sch *Scheduler
	cur *stageRun // guarded by sch.mu
}

// openLane registers a new lane and makes sure the pool is at width
// (workers spawn lazily and exit when the last lane closes).
func (s *Scheduler) openLane() *schedLane {
	ln := &schedLane{sch: s}
	s.mu.Lock()
	s.lanes = append(s.lanes, ln)
	for s.spawned < s.width {
		s.spawned++
		go s.worker()
	}
	s.mu.Unlock()
	s.lanesOpened.Add(1)
	return ln
}

// closeLane removes the lane; when it was the last one the pool
// workers observe zero lanes and exit.
func (s *Scheduler) closeLane(ln *schedLane) {
	s.mu.Lock()
	for i, l := range s.lanes {
		if l == ln {
			s.lanes = append(s.lanes[:i], s.lanes[i+1:]...)
			break
		}
	}
	if s.rr >= len(s.lanes) {
		s.rr = 0
	}
	s.mu.Unlock()
	s.cond.Broadcast() // wake workers so they can exit or rebalance
}

// submit publishes sr as the lane's current stage and wakes the pool.
func (ln *schedLane) submit(sr *stageRun) {
	ln.sch.mu.Lock()
	ln.cur = sr
	ln.sch.mu.Unlock()
	ln.sch.cond.Broadcast()
}

// retire clears the lane's current stage if it is still sr (a pool
// worker may have observed exhaustion and cleared it already).
func (ln *schedLane) retire(sr *stageRun) {
	ln.sch.mu.Lock()
	if ln.cur == sr {
		ln.cur = nil
	}
	ln.sch.mu.Unlock()
}

// stageRun is one submitted stage: an atomically-claimed job queue
// that the submitting goroutine and pool workers drain together. All claim/finish/close accounting lives in one
// packed atomic word so that "stage drained" (fin closes) can never
// race a late claim:
//
//	bits 0..30  claimed — jobs handed out
//	bit  31     closed  — pipeline stopped; no further claims succeed
//	bits 32..62 finished — jobs whose bodies returned
//
// fin closes exactly when no more claims can succeed AND every claimed
// job has finished; the submitter blocks on fin, preserving the stage
// barrier (and the safety of recycling pooled buffers after run).
type stageRun struct {
	p   *Pipeline
	st  obs.Stage
	arg int32
	n   int64 // total jobs
	fn  func(int)

	state   atomic.Int64
	running atomic.Int32 // pool executors inside fn (capped at p.workers-1)
	cap     int32
	finOnce sync.Once
	fin     chan struct{}
}

const (
	srClaimedMask = int64(1)<<31 - 1
	srClosedBit   = int64(1) << 31
	srFinShift    = 32
)

func newStageRun(p *Pipeline, st obs.Stage, arg int32, n int, fn func(int)) *stageRun {
	poolCap := int32(p.workers - 1)
	if int64(poolCap) > int64(n) {
		poolCap = int32(n)
	}
	return &stageRun{
		p: p, st: st, arg: arg, n: int64(n), fn: fn,
		cap: poolCap, fin: make(chan struct{}),
	}
}

// tryClaim hands out the next job index, or fails permanently when the
// stage is exhausted (all jobs claimed) or the pipeline stopped (the
// closed bit is set under the same CAS word, so no claim can succeed
// after a drain-completion was signaled).
func (sr *stageRun) tryClaim() (int, bool) {
	for {
		s := sr.state.Load()
		claimed := s & srClaimedMask
		if s&srClosedBit != 0 || claimed >= sr.n {
			return 0, false
		}
		if sr.p.stopped() {
			if sr.state.CompareAndSwap(s, s|srClosedBit) {
				sr.checkDrained()
				return 0, false
			}
			continue
		}
		if sr.state.CompareAndSwap(s, s+1) {
			return int(claimed), true
		}
	}
}

// finishJob marks one claimed job complete and closes fin when the
// stage has fully drained.
func (sr *stageRun) finishJob() {
	s := sr.state.Add(1 << srFinShift)
	sr.maybeClose(s)
}

// checkDrained re-evaluates drain completion from the current state —
// needed when the closed bit is set with zero jobs in flight, where no
// finishJob will run afterwards.
func (sr *stageRun) checkDrained() { sr.maybeClose(sr.state.Load()) }

func (sr *stageRun) maybeClose(s int64) {
	claimed := s & srClaimedMask
	if (s&srClosedBit != 0 || claimed >= sr.n) && s>>srFinShift == claimed {
		sr.finOnce.Do(func() { close(sr.fin) })
	}
}

// exhausted reports that no future claim on sr can succeed.
func (sr *stageRun) exhausted() bool {
	s := sr.state.Load()
	return s&srClosedBit != 0 || s&srClaimedMask >= sr.n
}

// poolClaim is tryClaim under the pool-concurrency cap (workers-1 pool
// executors, so an operation never exceeds its configured width even
// counting its own submitting goroutine).
func (sr *stageRun) poolClaim() (int, bool) {
	for {
		r := sr.running.Load()
		if r >= sr.cap {
			return 0, false
		}
		if sr.running.CompareAndSwap(r, r+1) {
			break
		}
	}
	i, ok := sr.tryClaim()
	if !ok {
		sr.running.Add(-1)
	}
	return i, ok
}

// ---------------------------------------------------------------------------
// Pool workers

// worker is one pool goroutine: pick the next runnable lane, execute
// one job from it, repeat; sleep when nothing is runnable, exit
// when no lanes are open. Workers never block on a lane's jobs — a
// stopped pipeline drains by failed claims — so one operation's fault
// or cancellation cannot wedge the pool.
func (s *Scheduler) worker() {
	var last *schedLane
	for {
		s.mu.Lock()
		for {
			if len(s.lanes) == 0 {
				s.spawned--
				s.mu.Unlock()
				return
			}
			ln, sr := s.pick()
			if sr != nil {
				s.mu.Unlock()
				if ln != last {
					if last != nil {
						s.laneSwitches.Add(1)
					}
					last = ln
				}
				s.exec(sr)
				break
			}
			s.cond.Wait()
		}
	}
}

// pick selects the next runnable (lane, stage) round-robin: it resumes
// after the last served lane, so pool capacity rotates over all
// runnable lanes regardless of their size. Called with s.mu held. Lanes
// whose stage is exhausted are cleaned up in passing. Returns
// (nil, nil) when nothing is runnable.
func (s *Scheduler) pick() (*schedLane, *stageRun) {
	n := len(s.lanes)
	for k := 0; k < n; k++ {
		idx := (s.rr + k) % n
		ln := s.lanes[idx]
		sr := ln.cur
		if sr == nil {
			continue
		}
		if sr.exhausted() {
			ln.cur = nil
			continue
		}
		if sr.running.Load() >= sr.cap {
			continue
		}
		s.rr = (idx + 1) % n
		return ln, sr
	}
	return nil, nil
}

// execLane maps an observability lane to the worker-lane coordinate
// carried by FaultError: the obs lane id when a recorder is attached,
// 0 otherwise (a nil lane reports -1, which would read as "missing").
func execLane(l *obs.Lane) int {
	if id := l.ID(); id >= 0 {
		return id
	}
	return 0
}

// exec claims and runs one job from sr on behalf of its operation.
// Spans and counters go to the operation's own recorder (sr.p.rec), so
// per-op attribution survives cross-lane execution.
func (s *Scheduler) exec(sr *stageRun) {
	i, ok := sr.poolClaim()
	if !ok {
		return
	}
	s.poolClaims.Add(1)
	rec := sr.p.rec
	rec.Add(obs.CtrSchedPoolClaims, 1)
	ol := rec.Acquire()
	ol.Claim()
	sp := ol.Begin(sr.st, sr.arg, int32(i))
	sr.p.job(sr.st, sr.arg, execLane(ol), i, sr.fn)
	sp.End()
	ol.Release()
	sr.running.Add(-1)
	sr.finishJob()
	// Freeing the concurrency slot may make this stage runnable for a
	// sleeping sibling worker.
	if !sr.exhausted() {
		s.cond.Signal()
	}
}

// runShared drains one stage through the shared pool: publish it on the
// operation's lane, then have the submitting goroutine claim jobs like
// any worker until the queue is empty, and finally wait for in-flight
// pool jobs to finish (the stage barrier). The job wrapper and stop
// semantics are identical to the inline path.
func (p *Pipeline) runShared(st obs.Stage, arg int32, n int, fn func(int)) error {
	sr := newStageRun(p, st, arg, n, fn)
	p.lane.submit(sr)
	rec := p.rec
	ln := rec.Acquire()
	for {
		i, ok := sr.tryClaim()
		if !ok {
			break
		}
		rec.Add(obs.CtrSchedSelfClaims, 1)
		ln.Claim()
		sp := ln.Begin(st, arg, int32(i))
		p.job(st, arg, execLane(ln), i, fn)
		sp.End()
		sr.finishJob()
	}
	ln.Release()
	sr.checkDrained()
	<-sr.fin
	p.lane.retire(sr)
	return p.Err()
}
