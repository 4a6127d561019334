package obs

import (
	"context"
	"time"
)

// Context-scoped operation recorders.
//
// WithOperation scopes one encode or decode: it mints a trace ID and a
// fresh Recorder and hangs the recorder on the context the codec
// threads through every stage. Finish rolls the operation's counters
// and outcome into the process-wide aggregate Registry. Concurrent
// operations thus get disjoint span sets, per-op counters, and
// distinct trace IDs, while /metrics keeps serving coherent process
// totals.
//
// FromContext is the only resolution point: the codec reads the
// context's recorder once per operation and hands it down. There is
// no process-global fallback; a context without an operation yields
// nil, which keeps the disabled fast path at one branch per hook.

// opCtxKey carries the operation recorder in a context.
type opCtxKey struct{}

// WithOperation returns ctx with a fresh operation recorder attached,
// and the recorder. Call Finish when the operation completes. kind is
// a free-form label ("encode", "load:thumbnail") carried by the
// Chrome trace export and the runtime/trace task name.
func WithOperation(ctx context.Context, kind string) (context.Context, *Recorder) {
	if ctx == nil {
		ctx = context.Background()
	}
	r := newRecorder(Aggregate(), kind)
	return context.WithValue(ctx, opCtxKey{}, r), r
}

// FromContext returns the operation recorder attached to ctx, or nil
// when ctx carries none.
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(opCtxKey{}).(*Recorder)
	return r
}

// Outcome is how an operation ended: the class and exact latency OpDone
// recorded, or a failure. The zero Outcome means neither was recorded.
type Outcome struct {
	Done     bool // OpDone ran and no failure was recorded
	Failed   bool // OpFailed ran
	Class    OpClass
	Duration time.Duration
}

// String renders the outcome as the `-report` line: the class and the
// exact duration, "failed", or "no outcome".
func (o Outcome) String() string {
	switch {
	case o.Failed:
		return "failed"
	case o.Done:
		return o.Class.String() + " " + o.Duration.Round(time.Microsecond).String()
	}
	return "no outcome"
}

// OpDone records the operation's completion under class c with latency
// d, unless a failure was already recorded. Safe on nil.
func (r *Recorder) OpDone(c OpClass, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.outcome.Failed {
		r.outcome = Outcome{Done: true, Class: c, Duration: d}
	}
	r.mu.Unlock()
}

// OpFailed records that the operation finished with an error (a failed
// operation has no SLO latency). A failure overrides any completion.
// Safe on nil.
func (r *Recorder) OpFailed() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.outcome = Outcome{Failed: true}
	r.mu.Unlock()
}

// Outcome returns what OpDone or OpFailed recorded.
func (r *Recorder) Outcome() Outcome {
	if r == nil {
		return Outcome{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.outcome
}

// Finish closes the operation: it ends the runtime/trace task and
// rolls the counters, dropped-span count and outcome into the registry.
// Idempotent and safe on nil; the recorder stays readable afterwards,
// so reports and trace exports read it after Finish.
func (r *Recorder) Finish() {
	if r == nil || !r.finished.CompareAndSwap(false, true) {
		return
	}
	if r.endTask != nil {
		r.endTask()
	}
	r.reg.active.Add(-1)
	r.reg.merge(r)
}
