// Shared process-wide scheduler: admission control and a bounded set
// of stage helpers, as two counting semaphores (DESIGN.md §12).
//
// The paper keeps a fixed set of hardware workers (the SPEs) saturated
// by one global work queue. The Scheduler bounds the same two things
// process-wide: how many operations run at once (admission tokens) and
// how many helper goroutines may join the stages of those operations
// (helper tokens). It is the only way a codec stage gets more than one
// executor; a single-worker pipeline runs its stages inline.
//
// Key invariants:
//
//   - Byte identity: a stage is one atomically-claimed job queue; only
//     the identity of the goroutines draining it varies. Stage barriers
//     and job bodies do not depend on the helpers, so per-operation
//     output is byte-identical to the inline path at every scheduler
//     width (DESIGN.md §5, extended process-wide in §12).
//   - No cross-op stalls: a helper drains one stage of one operation
//     and returns its token when that stage's cursor is exhausted or
//     the operation stops, so a canceled or faulted operation gives its
//     helpers back within one outstanding job each.
//   - Liveness without helpers: the goroutine that runs a stage always
//     drains it, so every operation has one executor even when every
//     helper token is held elsewhere, and helpers can never deadlock an
//     operation.
//   - Bounded goroutines: at most Workers helpers exist process-wide,
//     and each one lives for one stage, so an idle process holds zero
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
	Workers   int // helper goroutines shared by all running stages
	MaxActive int // operations admitted concurrently
	MaxQueue  int // operations waiting for admission before ErrOverloaded
}

// Scheduler bounds the concurrency of many operations with two
// counting semaphores. Operations enter through Admit, which takes one
// of MaxActive admission tokens (bounded queue, backpressure); each
// stage of a multi-worker operation may take up to workers−1 of the
// Workers helper tokens, one per helper goroutine that joins its
// drain. The goroutine running the stage always drains it too, so
// helpers are shared extra capacity, never a dependency.
type Scheduler struct {
	maxQueue int64

	slots   chan struct{} // admission tokens, one per running operation
	queued  atomic.Int64  // operations waiting for an admission token
	helpers chan struct{} // helper tokens, one per live helper goroutine

	// Monotone counters for /metrics and Stats.
	lanesOpened  atomic.Int64
	poolClaims   atomic.Int64
	admitWaits   atomic.Int64
	admitRejects atomic.Int64
}

// NewScheduler builds a Scheduler from cfg (zero fields take the
// documented defaults). It starts no goroutines: helpers start inside
// the stages that take them.
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
	return &Scheduler{
		maxQueue: int64(cfg.MaxQueue),
		slots:    make(chan struct{}, cfg.MaxActive),
		helpers:  make(chan struct{}, cfg.Workers),
	}
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
		obs.ExternalMetric{Name: "j2k_scheduler_workers", Help: "Live stage helper goroutines.", Type: "gauge",
			Read: func() int64 { return int64(len(s.helpers)) }},
		obs.ExternalMetric{Name: "j2k_scheduler_active_ops", Help: "Operations admitted and running.", Type: "gauge",
			Read: func() int64 { return int64(len(s.slots)) }},
		obs.ExternalMetric{Name: "j2k_scheduler_queue_depth", Help: "Operations waiting in the admission queue.", Type: "gauge",
			Read: s.queued.Load},
		obs.ExternalMetric{Name: "j2k_scheduler_lanes_opened_total", Help: "Pipelines that ran a stage eligible for helpers.", Type: "counter",
			Read: s.lanesOpened.Load},
		obs.ExternalMetric{Name: "j2k_scheduler_pool_claims_total", Help: "Jobs claimed by stage helpers.", Type: "counter",
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
	Workers     int // configured helper width
	WorkersLive int // helper tokens currently held
	ActiveOps   int
	QueueDepth  int
	LanesOpened int64 // pipelines that ran a stage eligible for helpers
	// LaneSwitches is always 0: helpers serve one stage each and never
	// move between operations. It stays for the benchmark harness,
	// which still reads it.
	LaneSwitches int64
	PoolClaims   int64
	AdmitWaits   int64
	AdmitRejects int64
}

// Stats returns a snapshot of the scheduler's state. Each field is
// read atomically on its own.
func (s *Scheduler) Stats() SchedStats {
	return SchedStats{
		Workers:      cap(s.helpers),
		WorkersLive:  len(s.helpers),
		ActiveOps:    len(s.slots),
		QueueDepth:   int(s.queued.Load()),
		LanesOpened:  s.lanesOpened.Load(),
		PoolClaims:   s.poolClaims.Load(),
		AdmitWaits:   s.admitWaits.Load(),
		AdmitRejects: s.admitRejects.Load(),
	}
}

// Admit reserves an operation slot, blocking in a bounded queue when
// MaxActive operations are already running. It returns a release func
// the operation must call exactly once when it finishes (the entry
// points defer it). When the queue is full it fails fast with
// ErrOverloaded; when ctx is canceled while queued it returns
// ctx.Err(). Queued operations are admitted in arrival order: they
// block sending on the token channel, and a release hands its token to
// the first blocked sender. Queue wait is recorded as an "admit" stage
// span on the operation's recorder, so it lands in the per-op SLO
// histograms and the Amdahl report's serial window.
func (s *Scheduler) Admit(ctx context.Context, rec *obs.Recorder) (release func(), err error) {
	select {
	case s.slots <- struct{}{}:
		return s.release, nil
	default:
	}
	if s.queued.Add(1) > s.maxQueue {
		s.queued.Add(-1)
		s.admitRejects.Add(1)
		return nil, ErrOverloaded
	}
	defer s.queued.Add(-1)

	s.admitWaits.Add(1)
	rec.Add(obs.CtrSchedAdmitWaits, 1)
	ln := rec.Acquire()
	sp := ln.Begin(obs.StageAdmit, 0, 0)
	defer ln.Release()
	defer sp.End()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case s.slots <- struct{}{}:
		return s.release, nil
	case <-done:
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

// release returns an operation slot; the channel passes it to the
// first queued operation, if any.
func (s *Scheduler) release() { <-s.slots }

// execLane maps an observability lane to the worker-lane coordinate
// carried by FaultError: the obs lane id when a recorder is attached,
// 0 otherwise (a nil lane reports -1, which would read as "missing").
func execLane(l *obs.Lane) int {
	if id := l.ID(); id >= 0 {
		return id
	}
	return 0
}
