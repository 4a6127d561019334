package codec

import (
	"context"
	"time"

	"j2kcell/internal/obs"
)

// apiOp is the envelope every public encode and decode entry point
// shares. It resolves the operation recorder from the context once,
// reads the clock only when recording, holds the admission slot and the
// coordinator lane with its whole-operation span, contains any panic
// that escapes the per-job wrappers into a *FaultError, and records the
// outcome: OpFailed on error, else OpDone under the operation's class.
// An entry point opens it with beginOp and defers end on its named
// error result.
type apiOp struct {
	rec     *obs.Recorder
	fault   string // stage label of a panic contained at the API
	start   time.Time
	cls     obs.OpClass
	classed bool // cls is known; a decode learns it from its header
	release func()
	ln      *obs.Lane
	total   obs.Span
}

// beginOp opens the envelope for the operation bound to ctx (nil means
// context.Background, which is returned for the rest of the call).
func beginOp(ctx context.Context, fault string) (context.Context, apiOp) {
	if ctx == nil {
		ctx = context.Background()
	}
	op := apiOp{rec: obs.FromContext(ctx), fault: fault}
	if op.rec != nil {
		op.start = time.Now()
	}
	return ctx, op
}

// classify latches the class the operation's latency is recorded under.
func (op *apiOp) classify(c obs.OpClass) { op.cls, op.classed = c, true }

// admit reserves the operation's scheduler slot (DESIGN.md §12) — a
// full admission queue fails fast with ErrOverloaded before any
// pipeline work starts — and then opens the coordinator lane with the
// whole-operation span of stage env. That span defines the Amdahl
// report's total window; acquired before any stage runs, the lane pins
// lane 0, so worker lanes stay stable across stages.
func (op *apiOp) admit(ctx context.Context, workers int, env obs.Stage) (*obs.Lane, error) {
	release, err := admitOp(ctx, workers, op.rec)
	if err != nil {
		return nil, err
	}
	op.release = release
	op.ln = op.rec.Acquire()
	op.total = op.ln.Begin(env, 0, 0)
	return op.ln, nil
}

// end closes the envelope; the entry point defers it first so it runs
// last. A panic that crossed the entry point becomes *err as a located
// *FaultError before the outcome is recorded.
func (op *apiOp) end(err *error) {
	if r := recover(); r != nil {
		op.rec.Add(obs.CtrFaultPanics, 1)
		*err = asFault(r, op.fault, -1, -1, 0)
	}
	op.total.End()
	op.ln.Release()
	if op.release != nil {
		op.release()
	}
	switch {
	case op.rec == nil:
	case *err != nil:
		op.rec.OpFailed()
	case op.classed:
		op.rec.OpDone(op.cls, time.Since(op.start))
	}
}
