package obs

import (
	"sync/atomic"
	"time"
)

// OpClass keys the SLO latency histograms: every encode or decode
// operation falls into one of {encode,decode} × {lossless,lossy} ×
// {untiled,tiled} × {mq,ht}. The class is what a service-level
// objective is stated against — "p99 of lossy untiled HT encodes" —
// so the registry keeps one whole-operation latency histogram per
// class rather than smearing thumbnail encodes and gigapixel decodes
// into one distribution.
type OpClass uint8

// Class bits. ClassOf composes them; String decodes them.
const (
	clsDecode OpClass = 1 << iota
	clsLossy
	clsTiled
	clsHT
	clsResilient // best-effort decode path (damage-tolerant, reports instead of failing)
)

// NumOpClasses is the size of the class space.
const NumOpClasses = 32

// ClassOf returns the operation class for the given axes.
func ClassOf(decode, lossy, tiled, ht bool) OpClass {
	var c OpClass
	if decode {
		c |= clsDecode
	}
	if lossy {
		c |= clsLossy
	}
	if tiled {
		c |= clsTiled
	}
	if ht {
		c |= clsHT
	}
	return c
}

// Resilient marks the class as a best-effort (resilient) decode — its
// own SLO family, since salvage work prices differently from a clean
// decode and its latency objective is stated separately.
func (c OpClass) Resilient() OpClass { return c | clsResilient }

func (c OpClass) String() string {
	s := "encode"
	if c&clsDecode != 0 {
		s = "decode"
	}
	if c&clsLossy != 0 {
		s += "_lossy"
	} else {
		s += "_lossless"
	}
	if c&clsTiled != 0 {
		s += "_tiled"
	} else {
		s += "_untiled"
	}
	if c&clsHT != 0 {
		s += "_ht"
	} else {
		s += "_mq"
	}
	if c&clsResilient != 0 {
		s += "_resilient"
	}
	return s
}

// Registry is the process-wide aggregate sink. Per-operation recorders
// (WithOperation) roll their counters, stage histograms, and SLO
// observations into it when they close, so the registry's totals are
// monotone for the life of the
// process — exactly the semantics Prometheus counters and cumulative
// histograms require. The registry never sees individual spans (those
// stay in each recorder's lanes); it is the scrape-able summary that
// /metrics, /debug/vars, and the j2kload SLO table read.
type Registry struct {
	start    time.Time
	counters [numCounters]atomic.Int64
	hist     [numStages]Histogram // per-stage span durations, rolled up
	slo      [NumOpClasses]Histogram
	ops      [NumOpClasses]atomic.Int64
	opErrors atomic.Int64 // operations that finished with an error
	active   atomic.Int64 // operations currently in flight
	dropped  atomic.Int64
	seq      atomic.Uint64 // trace-ID sequence
}

// NewRegistry returns a fresh, empty registry (used by tests and the
// golden-file exposition fixtures; production code uses Aggregate).
func NewRegistry() *Registry { return &Registry{start: time.Now()} }

// aggregate is the singleton process registry. It always exists —
// existence is free, because nothing writes to it until a recorder
// closes — so callers never branch on "is the registry enabled".
var aggregate atomic.Pointer[Registry]

func init() { aggregate.Store(NewRegistry()) }

// Aggregate returns the process-wide registry.
func Aggregate() *Registry { return aggregate.Load() }

// SwapAggregate installs reg (a fresh registry if nil) as the process
// aggregate and returns the previous one. Tests use it to observe a
// bounded window; production code has no reason to call it.
func SwapAggregate(reg *Registry) *Registry {
	if reg == nil {
		reg = NewRegistry()
	}
	return aggregate.Swap(reg)
}

// nextTraceID mints a process-unique operation trace ID: the registry
// creation time (distinguishing restarts) and a monotone sequence
// number (distinguishing concurrent operations).
func (g *Registry) nextTraceID() string {
	seq := g.seq.Add(1)
	return "j2k-" + hex32(uint32(g.start.UnixNano())) + "-" + hex32(uint32(seq))
}

// hex32 renders v as 8 lowercase hex digits.
func hex32(v uint32) string {
	const digits = "0123456789abcdef"
	var b [8]byte
	for i := 7; i >= 0; i-- {
		b[i] = digits[v&0xF]
		v >>= 4
	}
	return string(b[:])
}

// Counter reads one aggregate counter.
func (g *Registry) Counter(c Counter) int64 {
	if g == nil {
		return 0
	}
	return g.counters[c].Load()
}

// Counters returns a name → value map of every non-zero aggregate
// counter.
func (g *Registry) Counters() map[string]int64 {
	if g == nil {
		return nil
	}
	out := make(map[string]int64, numCounters)
	for c := Counter(0); c < numCounters; c++ {
		if v := g.counters[c].Load(); v != 0 {
			out[c.String()] = v
		}
	}
	return out
}

// Hist returns the aggregate duration histogram of one stage.
func (g *Registry) Hist(s Stage) *Histogram {
	if g == nil {
		return nil
	}
	return &g.hist[s]
}

// SLO returns the aggregate whole-operation latency histogram of one
// class.
func (g *Registry) SLO(c OpClass) *Histogram {
	if g == nil {
		return nil
	}
	return &g.slo[c]
}

// Ops returns the number of completed operations of one class.
func (g *Registry) Ops(c OpClass) int64 {
	if g == nil {
		return 0
	}
	return g.ops[c].Load()
}

// OpsTotal returns the number of completed operations across all
// classes.
func (g *Registry) OpsTotal() int64 {
	if g == nil {
		return 0
	}
	var n int64
	for c := range g.ops {
		n += g.ops[c].Load()
	}
	return n
}

// OpsActive returns the number of operations currently in flight.
func (g *Registry) OpsActive() int64 {
	if g == nil {
		return 0
	}
	return g.active.Load()
}

// OpErrors returns the number of operations that finished with an
// error.
func (g *Registry) OpErrors() int64 {
	if g == nil {
		return 0
	}
	return g.opErrors.Load()
}

// Dropped returns the aggregate count of spans that overflowed lane
// buffers.
func (g *Registry) Dropped() int64 {
	if g == nil {
		return 0
	}
	return g.dropped.Load()
}

// merge rolls one closing recorder's totals into the registry.
func (g *Registry) merge(r *Recorder) {
	if g == nil || r == nil {
		return
	}
	for c := range r.counters {
		if v := r.counters[c].Load(); v != 0 {
			g.counters[c].Add(v)
		}
	}
	for s := range r.hist {
		g.hist[s].AddFrom(&r.hist[s])
	}
	for c := range r.slo {
		g.slo[c].AddFrom(&r.slo[c])
		if v := r.ops[c].Load(); v != 0 {
			g.ops[c].Add(v)
		}
	}
	g.opErrors.Add(r.opErrors.Load())
	g.dropped.Add(r.dropped.Load())
}
