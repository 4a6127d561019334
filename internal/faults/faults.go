// Package faults is a deterministic fault-injection harness for the
// codec's worker stages. Tests arm exactly one fault — "panic (or
// error) at the Nth entry to the named stage" — and the pipeline's
// containment layer must convert it into a clean, typed failure of the
// whole encode or decode: no escaped panic, no hang, no leaked
// goroutine, pools still consistent.
//
// The harness is disabled by default; the only cost on the hot path is
// one atomic pointer load per stage job (Hit). Arming is global, so
// tests that inject faults must not run in parallel with each other —
// the containment matrix serializes on Arm/Disarm.
package faults

import (
	"fmt"
	"sync/atomic"
)

// Mode selects what the armed fault does when it fires.
type Mode int

// Fault modes.
const (
	// Panic makes the Nth entry panic; the pipeline's recover wrapper
	// must convert it into a *codec.FaultError.
	Panic Mode = iota
	// Error makes Hit return an *InjectedError from the Nth entry; the
	// stage must fail the encode/decode with it, without panicking.
	Error
)

// InjectedError is the typed error produced by an armed Error fault.
type InjectedError struct {
	Stage string // stage name the fault was armed on
	N     int64  // the entry index (1-based) at which it fired
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected error at %s entry %d", e.Stage, e.N)
}

// plan is one armed fault.
type plan struct {
	stage string
	n     int64
	mode  Mode
	count atomic.Int64
	fired atomic.Int64
}

var active atomic.Pointer[plan]

// Arm schedules one fault: the nth entry (1-based) to the named stage
// panics (Panic) or errors (Error). Arming replaces any previous plan
// and resets its entry counter. n < 1 is clamped to 1.
func Arm(stage string, n int, mode Mode) {
	if n < 1 {
		n = 1
	}
	p := &plan{stage: stage, n: int64(n), mode: mode}
	active.Store(p)
}

// Rand is the subset of workload.RNG the harness needs, kept as an
// interface so faults stays dependency-free.
type Rand interface{ Intn(n int) int }

// ArmRandom arms a fault at a deterministic pseudo-random entry in
// [1, maxN], drawn from rng (seed it to reproduce a run). It returns
// the chosen N.
func ArmRandom(stage string, rng Rand, maxN int, mode Mode) int {
	if maxN < 1 {
		maxN = 1
	}
	n := rng.Intn(maxN) + 1
	Arm(stage, n, mode)
	return n
}

// Disarm removes the active plan.
func Disarm() { active.Store(nil) }

// Fired reports how many times the active plan has fired (0 when
// disarmed or not yet reached).
func Fired() int64 {
	p := active.Load()
	if p == nil {
		return 0
	}
	return p.fired.Load()
}

// Hit records one entry into the named stage. When a fault is armed on
// this stage and this is its Nth entry, Hit panics (Panic mode) or
// returns an *InjectedError (Error mode); otherwise it returns nil.
// Disabled cost: one atomic load and a branch.
func Hit(stage string) error {
	p := active.Load()
	if p == nil || p.stage != stage {
		return nil
	}
	if p.count.Add(1) != p.n {
		return nil
	}
	p.fired.Add(1)
	if p.mode == Panic {
		panic(fmt.Sprintf("faults: injected panic at %s entry %d", stage, p.n))
	}
	return &InjectedError{Stage: stage, N: p.n}
}
