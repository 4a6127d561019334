// Error taxonomy of the codec (DESIGN.md §8). Three disjoint failure
// classes cross the public API:
//
//   - *FormatError — the input codestream is malformed, truncated, or
//     exceeds the decoder's resource Limits. Retrying cannot help;
//     reject the input.
//   - *FaultError — a worker goroutine panicked (or an injected fault
//     fired) inside a pipeline stage; the panic was contained, the
//     encode/decode failed cleanly, and the fault's stage, worker
//     lane, and job coordinates are attached. This signals a codec
//     bug, not bad input.
//   - context.Canceled / context.DeadlineExceeded — the caller's
//     context expired; returned unwrapped so errors.Is works.
package codec

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"j2kcell/internal/codestream"
)

// Limits bounds what the decoder accepts from an untrusted stream's
// main header; see codestream.Limits. The zero value disables
// limiting; DefaultLimits returns the bounds applied when
// DecodeOptions carries none.
type Limits = codestream.Limits

// DefaultLimits returns the decoder's default header limits.
func DefaultLimits() Limits { return codestream.DefaultLimits() }

// FaultError reports a panic contained inside a codec worker: the
// pipeline stage it escaped from, the worker lane and job index that
// were executing (for Tier-1 stages the job index is the code block's
// position in the canonical PlanBlocks order; for DWT stages Arg is
// the decomposition level, for tiled encodes the tile index), and
// either the recovered panic value with its stack or the injected
// error. The encode/decode that contained it has failed cleanly: no
// goroutine leaked, pooled buffers were returned, and the pools remain
// usable.
type FaultError struct {
	Stage string // pipeline stage name ("mct", "dwt-v", "t1", "rate", "tile", ...)
	Lane  int    // worker lane index (-1 when unknown / coordinator)
	Job   int    // job index within the stage (-1 when unknown)
	Arg   int    // stage argument: DWT level or tile index (0 otherwise)
	Panic any    // recovered panic value (nil for injected errors)
	Stack []byte // goroutine stack captured at recovery (nil for injected errors)
	Err   error  // underlying error for non-panic faults
}

func (e *FaultError) Error() string {
	loc := fmt.Sprintf("stage %s, lane %d, job %d", e.Stage, e.Lane, e.Job)
	if e.Panic != nil {
		return fmt.Sprintf("codec: contained panic in %s: %v", loc, e.Panic)
	}
	return fmt.Sprintf("codec: fault in %s: %v", loc, e.Err)
}

// Unwrap exposes the underlying injected error (nil for panics).
func (e *FaultError) Unwrap() error { return e.Err }

// asFault converts a recovered panic value into a *FaultError. A
// *FaultError (from a nested pipeline or PCRD rate control) already
// carries its fault context and keeps its original stage and stack.
func asFault(r any, stage string, lane, job, arg int) *FaultError {
	if fe, ok := r.(*FaultError); ok {
		return fe
	}
	return &FaultError{Stage: stage, Lane: lane, Job: job, Arg: arg, Panic: r, Stack: debug.Stack()}
}

// FormatError reports a malformed, truncated, or limit-exceeding
// codestream. The underlying parse error (from the codestream, t2, or
// t1 layers) is wrapped and reachable via errors.Unwrap.
type FormatError struct {
	Msg string // optional context ("tile 3", "packet l=0 r=1 c=2")
	Err error  // underlying parse or limit error
}

func (e *FormatError) Error() string {
	switch {
	case e.Msg != "" && e.Err != nil:
		return fmt.Sprintf("codec: invalid codestream: %s: %v", e.Msg, e.Err)
	case e.Err != nil:
		return fmt.Sprintf("codec: invalid codestream: %v", e.Err)
	}
	return "codec: invalid codestream: " + e.Msg
}

// Unwrap exposes the underlying parse error.
func (e *FormatError) Unwrap() error { return e.Err }

// passthrough reports whether err must cross the API without further
// wrapping: context errors (so errors.Is(err, context.Canceled) holds
// unwrapped at the call site) and contained faults (already fully
// located by stage/lane/job).
func passthrough(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var fe *FaultError
	return errors.As(err, &fe)
}

// formatErr wraps a parse-layer error as a *FormatError (idempotent;
// nil passes through).
func formatErr(err error) error {
	if err == nil {
		return nil
	}
	var fe *FormatError
	if errors.As(err, &fe) {
		return err
	}
	return &FormatError{Err: err}
}

// formatErrf is formatErr with positional context. Context added to a
// *FormatError goes in front of its own, so the parse error stays one
// Unwrap away.
func formatErrf(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	msg := fmt.Sprintf(format, args...)
	if fe, ok := err.(*FormatError); ok {
		if fe.Msg != "" {
			msg += ": " + fe.Msg
		}
		return &FormatError{Msg: msg, Err: fe.Err}
	}
	return &FormatError{Msg: msg, Err: err}
}
