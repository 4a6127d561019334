package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Context-scoped operation recorders.
//
// An operation recorder scopes one encode or decode: WithOperation
// mints a trace ID and a fresh Recorder, hangs it on the context the
// codec threads through every stage, and Finish rolls the operation's
// totals into the process-wide aggregate Registry. Concurrent
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

// Op is one in-flight observed operation: a per-operation recorder
// plus the bookkeeping to roll it into the aggregate registry exactly
// once.
type Op struct {
	rec      *Recorder
	reg      *Registry
	start    time.Time
	finished atomic.Bool
}

// WithOperation returns ctx with a fresh per-operation recorder
// attached, and the Op handle that owns it. The recorder observes
// only this operation (spans, counters, histograms, SLO latency);
// call Finish when the operation completes to roll its totals into
// the aggregate registry. kind is a free-form label ("encode",
// "load:thumbnail") carried by the trace ID display and the Chrome
// trace export.
func WithOperation(ctx context.Context, kind string) (context.Context, *Op) {
	if ctx == nil {
		ctx = context.Background()
	}
	reg := Aggregate()
	r := NewRecorder()
	r.reg = reg
	r.kind = kind
	r.trace = reg.nextTraceID()
	reg.active.Add(1)
	op := &Op{rec: r, reg: reg, start: r.epoch}
	return context.WithValue(ctx, opCtxKey{}, r), op
}

// Finish closes the operation: ends its runtime/trace task and rolls
// its counters, stage histograms, and SLO observations into the
// aggregate registry. Idempotent; safe on nil.
func (o *Op) Finish() {
	if o == nil || !o.finished.CompareAndSwap(false, true) {
		return
	}
	o.reg.active.Add(-1)
	o.rec.Close()
}

// Recorder returns the operation's recorder (valid until well after
// Finish — closing rolls totals up without clearing the recorder, so
// reports and trace exports still read it).
func (o *Op) Recorder() *Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// TraceID returns the operation's minted trace ID.
func (o *Op) TraceID() string {
	if o == nil {
		return ""
	}
	return o.rec.trace
}

// Kind returns the operation's label.
func (o *Op) Kind() string {
	if o == nil {
		return ""
	}
	return o.rec.kind
}

// Duration returns how long the operation has been running (or ran,
// after Finish — it keeps counting until Finish is called, so read it
// after Finish for the final figure).
func (o *Op) Duration() time.Duration {
	if o == nil {
		return 0
	}
	return time.Since(o.start)
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
