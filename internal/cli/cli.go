// Package cli holds the plumbing shared by the j2k* commands: the
// exit-code convention that lets scripts distinguish the codec's
// failure classes, flag helpers for timeouts and decoder limits, and
// the observed-operation epilogue (-report, -metrics, -trace).
package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"j2kcell"
	"j2kcell/internal/obs"
	"j2kcell/internal/simd"
)

// Exit codes of the j2k* commands. Scripts can branch on the class of
// failure without parsing stderr.
const (
	ExitOK      = 0 // success
	ExitError   = 1 // I/O and other untyped failures
	ExitUsage   = 2 // bad flags or arguments
	ExitFormat  = 3 // malformed, truncated, or limit-exceeding codestream
	ExitFault   = 4 // contained codec fault (a bug, not bad input)
	ExitTimeout = 5 // -timeout exceeded or operation cancelled
	ExitPartial = 6 // best-effort decode succeeded but the stream was damaged
)

// ExitCode maps an error to the shared exit-code convention.
func ExitCode(err error) int {
	if err == nil {
		return ExitOK
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return ExitTimeout
	}
	var fault *j2kcell.FaultError
	if errors.As(err, &fault) {
		return ExitFault
	}
	var format *j2kcell.FormatError
	if errors.As(err, &format) {
		return ExitFormat
	}
	return ExitError
}

// Context returns a context honoring a -timeout flag value (<= 0 means
// no timeout). The CancelFunc is always non-nil.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), timeout)
}

// Limits builds decoder limits from the -max-pixels and -max-dim flag
// values, starting from the library defaults (<= 0 keeps the default
// for that axis).
func Limits(maxPixels int64, maxDim int) *j2kcell.Limits {
	lim := j2kcell.DefaultLimits()
	if maxPixels > 0 {
		lim.MaxPixels = maxPixels
	}
	if maxDim > 0 {
		lim.MaxWidth, lim.MaxHeight = maxDim, maxDim
	}
	return &lim
}

// Epilogue finishes rec, the recorder of a command's one observed
// operation, and prints what the observability flags ask for: with
// report the kernel set, the per-stage wall-time table for workers
// executors and the outcome; with metrics the counter and latency
// table; with a non-empty traceOut a Chrome trace JSON timeline
// written to that file. A nil rec (no flag set) does nothing.
func Epilogue(rec *obs.Recorder, workers int, report, metrics bool, traceOut string) error {
	if rec == nil {
		return nil
	}
	rec.Finish()
	spans := rec.TSpans()
	if report {
		fmt.Printf("trace %s: simd kernels: %s\n", rec.TraceID(), simd.Kernel())
		fmt.Print(obs.BuildReport(spans, workers).Table())
		fmt.Printf("operation: %v\n", rec.Outcome())
	}
	if metrics {
		fmt.Print(rec.MetricsTable())
	}
	if traceOut == "" {
		return nil
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return err
	}
	err = obs.WriteChromeTrace(f, obs.OpTrace{
		TraceID: rec.TraceID(), Kind: rec.Kind(), Spans: spans, Counters: rec.Counters(),
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("trace: %s (%d spans; open in chrome://tracing or ui.perfetto.dev)\n", traceOut, len(spans))
	return nil
}
