// Package sim provides a small deterministic discrete-event simulation
// engine used to model the Cell Broadband Engine in virtual time.
//
// The engine advances a virtual clock measured in processor cycles.
// Simulated activities run as processes (Proc): ordinary Go functions
// executing in their own goroutine, but scheduled cooperatively so that
// exactly one process runs at a time. A process blocks by delaying,
// transferring data through a shared Resource (a pipelined bandwidth
// server such as the off-chip memory interface), waiting on completions
// of asynchronous transfers, or locking a virtual mutex. Identical
// inputs always produce identical schedules: ties in the event queue are
// broken by a monotonically increasing sequence number.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in clock cycles.
type Time int64

// event is a scheduled engine action. Proc resumptions and completion
// thunks share one queue so that ordering between them is well defined.
type event struct {
	at  Time
	seq int64
	p   *Proc  // non-nil: resume this process
	fn  func() // non-nil: run this thunk inside the engine
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) Empty() bool   { return len(h) == 0 }

// Engine owns the virtual clock and the event queue.
type Engine struct {
	now     Time
	seq     int64
	pq      eventHeap
	yield   chan struct{} // signalled by the running process when it blocks or ends
	running int           // processes that have been spawned and not yet finished
	started bool
}

// NewEngine returns an engine with an empty event queue at time zero.
func NewEngine() *Engine {
	return &Engine{yield: make(chan struct{})}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

func (e *Engine) nextSeq() int64 { e.seq++; return e.seq }

func (e *Engine) schedule(ev *event) {
	ev.seq = e.nextSeq()
	heap.Push(&e.pq, ev)
}

// At schedules fn to run inside the engine at absolute time t.
// It may be called before Run or from within a running process.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.schedule(&event{at: t, fn: fn})
}

// Proc is a simulated process. All its methods must be called from the
// process's own function; they cooperatively yield to the engine.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	done   bool
}

// Name returns the label given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Spawn creates a process that will begin running fn at time `at`.
func (e *Engine) Spawn(name string, at Time, fn func(p *Proc)) *Proc {
	if at < e.now {
		at = e.now
	}
	p := &Proc{eng: e, name: name, resume: make(chan struct{})}
	e.running++
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		e.yield <- struct{}{}
	}()
	e.schedule(&event{at: at, p: p})
	return p
}

// resumeProc hands control to p and waits until it blocks or finishes.
func (e *Engine) resumeProc(p *Proc) {
	p.resume <- struct{}{}
	<-e.yield
	if p.done {
		e.running--
		p.done = false // consume the flag; a proc finishes exactly once
	}
}

// Run processes events until the queue is empty and all processes have
// finished. It returns the final virtual time. Run panics on deadlock
// (processes still running with no pending events).
func (e *Engine) Run() Time {
	// invariant: the simulator is driven by this repo's harness code only;
	// misuse of the Engine API is a programming error, never input-dependent.
	if e.started {
		panic("sim: Engine.Run called twice")
	}
	e.started = true
	for !e.pq.Empty() {
		ev := heap.Pop(&e.pq).(*event)
		e.now = ev.at
		if ev.p != nil {
			e.resumeProc(ev.p)
		} else {
			ev.fn()
		}
	}
	// invariant: a modeled deadlock means the simulated protocol itself is
	// wrong (a model bug); there is no input to reject, so fail loudly.
	if e.running != 0 {
		panic(fmt.Sprintf("sim: deadlock, %d process(es) blocked with no pending events", e.running))
	}
	return e.now
}

// block yields to the engine and sleeps until something resumes p.
func (p *Proc) block() {
	p.eng.yield <- struct{}{}
	<-p.resume
}

// wakeAt schedules p to resume at time t (from engine or process context).
func (p *Proc) wakeAt(t Time) {
	p.eng.schedule(&event{at: t, p: p})
}

// Delay advances the process's local view of time by d cycles.
// Negative delays are treated as zero.
func (p *Proc) Delay(d Time) {
	if d <= 0 {
		return
	}
	p.wakeAt(p.eng.now + d)
	p.block()
}

// Completion represents the future completion of an asynchronous
// operation such as a DMA transfer.
type Completion struct {
	done    bool
	at      Time
	waiters []*Proc
	thunks  []func()
}

// Done reports whether the operation has completed.
func (c *Completion) Done() bool { return c.done }

// CompletedAt returns the virtual time of completion (valid once Done).
func (c *Completion) CompletedAt() Time { return c.at }

func (c *Completion) complete(e *Engine) {
	c.done = true
	c.at = e.now
	for _, fn := range c.thunks {
		fn()
	}
	c.thunks = nil
	for _, w := range c.waiters {
		w.wakeAt(e.now)
	}
	c.waiters = nil
}

// WhenDone runs fn at the moment c completes (immediately if it already
// has). Thunks run before any blocked waiters resume, so data delivered
// by a thunk is visible to every process woken by the completion.
func (e *Engine) WhenDone(c *Completion, fn func()) {
	if c.done {
		fn()
		return
	}
	c.thunks = append(c.thunks, fn)
}

// CompleteAt arranges for c to complete at absolute virtual time t,
// waking all waiters. It may be called before Run or from a process.
func (e *Engine) CompleteAt(c *Completion, t Time) {
	e.At(t, func() { c.complete(e) })
}

// WaitFor blocks until every given completion is done. Completions are
// awaited in argument order, which keeps wake-ups deterministic.
func (p *Proc) WaitFor(cs ...*Completion) {
	for _, c := range cs {
		if c == nil || c.done {
			continue
		}
		c.waiters = append(c.waiters, p)
		p.block()
	}
}

// Resource models a pipelined bandwidth server: transfers are serialized
// through the server at BytesPerCycle, and each transfer additionally
// observes a fixed pipeline Latency between leaving the server and
// completing. This is the standard first-order model for a memory
// interface: back-to-back transfers stream at full bandwidth while each
// individual transfer still sees the access latency.
type Resource struct {
	Name          string
	BytesPerCycle float64
	Latency       Time

	nextFree   Time
	TotalBytes int64 // accounting: total payload moved
	BusyCycles Time  // accounting: cycles the server was occupied
	Transfers  int64 // accounting: number of transfers served
}

// busyFor returns the server occupancy for a payload of n bytes.
func (r *Resource) busyFor(n int64) Time {
	// invariant: resources are constructed from the calibrated machine
	// tables, which are validated positive at configuration time.
	if r.BytesPerCycle <= 0 {
		panic("sim: Resource with non-positive bandwidth")
	}
	return Time(math.Ceil(float64(n) / r.BytesPerCycle))
}

// TransferAsync enqueues a transfer of n bytes and returns its
// completion without blocking the calling process.
func (p *Proc) TransferAsync(r *Resource, n int64) *Completion {
	e := p.eng
	start := e.now
	if r.nextFree > start {
		start = r.nextFree
	}
	busy := r.busyFor(n)
	r.nextFree = start + busy
	r.TotalBytes += n
	r.BusyCycles += busy
	r.Transfers++
	c := &Completion{}
	e.CompleteAt(c, start+busy+r.Latency)
	return c
}

// Transfer moves n bytes through r, blocking until completion.
func (p *Proc) Transfer(r *Resource, n int64) {
	p.WaitFor(p.TransferAsync(r, n))
}

// Utilization reports the fraction of virtual time [0, total] during
// which the resource's server was busy.
func (r *Resource) Utilization(total Time) float64 {
	if total <= 0 {
		return 0
	}
	return float64(r.BusyCycles) / float64(total)
}

// Mutex is a virtual-time mutual exclusion lock with FIFO handoff.
type Mutex struct {
	locked bool
	queue  []*Proc
}

// Lock acquires m, blocking in virtual time while another process holds
// it. Handoff is FIFO, so lock acquisition order is deterministic.
func (p *Proc) Lock(m *Mutex) {
	if !m.locked {
		m.locked = true
		return
	}
	m.queue = append(m.queue, p)
	p.block() // woken holding the lock
}

// Unlock releases m, handing it to the longest-waiting process if any.
func (p *Proc) Unlock(m *Mutex) {
	// invariant: lock discipline of the modeled processes, mirroring
	// sync.Mutex semantics — an unlock-without-lock is a model bug.
	if !m.locked {
		panic("sim: Unlock of unlocked Mutex")
	}
	if len(m.queue) > 0 {
		next := m.queue[0]
		m.queue = m.queue[1:]
		next.wakeAt(p.eng.now) // lock stays held; ownership transfers
		return
	}
	m.locked = false
}

// Barrier blocks n processes until all have arrived, then releases them
// simultaneously in arrival order.
type Barrier struct {
	N       int
	waiting []*Proc
}

// Arrive joins the barrier. The last arriving process releases everyone.
func (p *Proc) Arrive(b *Barrier) {
	// invariant: barrier width is the configured worker count, validated
	// at machine configuration time.
	if b.N <= 0 {
		panic("sim: Barrier with non-positive N")
	}
	if len(b.waiting)+1 >= b.N {
		for _, w := range b.waiting {
			w.wakeAt(p.eng.now)
		}
		b.waiting = b.waiting[:0]
		return
	}
	b.waiting = append(b.waiting, p)
	p.block()
}
