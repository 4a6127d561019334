package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	rtrace "runtime/trace"
	"strings"
	"testing"
	"time"
)

func TestSpanRecording(t *testing.T) {
	reg := NewRegistry()
	r := newRecorder(reg, "test")
	ln := r.Acquire()
	sp := ln.Begin(StageDWTVert, 2, 7)
	time.Sleep(time.Millisecond)
	sp.End()
	ln.Release()

	spans := r.TSpans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Track != "worker0" || s.Name != "dwt-v L2" || s.Stage != StageDWTVert {
		t.Fatalf("span identity: %+v", s)
	}
	if s.End-s.Start < int64(500*time.Microsecond) {
		t.Fatalf("span too short: %+v", s)
	}
	if h := reg.Hist(StageDWTVert); h.Count() != 1 {
		t.Fatalf("registry histogram count = %d before Finish, want 1", h.Count())
	}
	r.Finish()
	r.Finish()
	if h := reg.Hist(StageDWTVert); h.Count() != 1 {
		t.Fatalf("registry histogram count = %d after Finish, want 1", h.Count())
	}
}

func TestLaneReuseKeepsStableIDs(t *testing.T) {
	r := newRecorder(NewRegistry(), "test")
	a, b := r.Acquire(), r.Acquire()
	if a.ID() != 0 || b.ID() != 1 {
		t.Fatalf("ids %d,%d", a.ID(), b.ID())
	}
	b.Release()
	a.Release()
	// LIFO: the last released lane comes back first.
	if got := r.Acquire(); got.ID() != 0 {
		t.Fatalf("reacquired lane %d, want 0", got.ID())
	}
}

func TestDisabledPathIsAllocationFree(t *testing.T) {
	var r *Recorder
	if got := testing.AllocsPerRun(200, func() {
		ln := r.Acquire()
		ln.Claim()
		sp := ln.Begin(StageT1, 0, 0)
		sp.End()
		ln.Release()
		r.Add(CtrT1Blocks, 1)
		r.Add(CtrDWTBytesMoved, 4096)
	}); got != 0 {
		t.Fatalf("disabled obs path allocates %.1f times per op, want 0", got)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(CtrT1Blocks, 1)
	if r.Counter(CtrT1Blocks) != 0 || r.Acquire() != nil || r.TSpans() != nil {
		t.Fatal("nil recorder leaked state")
	}
	r.OpDone(ClassOf(false, false, false, false), time.Second)
	r.Finish()
	if r.Outcome() != (Outcome{}) || r.TraceID() != "" {
		t.Fatal("nil recorder reported an operation")
	}
	if r.MetricsTable() == "" {
		t.Fatal("nil metrics table empty")
	}
}

func TestCountersAndClaims(t *testing.T) {
	r := newRecorder(NewRegistry(), "test")
	r.Add(CtrQueueRuns, 1)
	r.Add(CtrQueueJobs, 42)
	ln := r.Acquire()
	ln.Claim()
	ln.Claim()
	ln.Release()
	if r.Counter(CtrQueueJobs) != 42 {
		t.Fatalf("jobs = %d", r.Counter(CtrQueueJobs))
	}
	if claims := r.LaneClaims(); len(claims) != 1 || claims[0] != 2 {
		t.Fatalf("claims = %v", claims)
	}
	m := r.Counters()
	if m["queue_jobs"] != 42 || m["queue_runs"] != 1 {
		t.Fatalf("counter map: %v", m)
	}
}

func TestBusyInWindow(t *testing.T) {
	spans := []TSpan{
		{Track: "spe0", Name: "t1", Start: 100, End: 200},
		{Track: "spe0", Name: "t1", Start: 300, End: 350},
		{Track: "ppe0", Name: "rate", Start: 0, End: 1000},
	}
	if got := BusyInWindow(spans, "spe0", 0, 1000); got != 150 {
		t.Fatalf("busy = %d, want 150", got)
	}
	if got := BusyInWindow(spans, "spe0", 150, 320); got != 70 {
		t.Fatalf("clipped busy = %d, want 70", got)
	}
	if got := BusyInWindow(spans, "none", 0, 1000); got != 0 {
		t.Fatalf("missing track busy = %d", got)
	}
}

func TestReportAmdahlMath(t *testing.T) {
	// Two workers fully parallel for 100ns, then 100ns serial tail:
	// serial fraction 0.5, achieved parallelism 1.5.
	spans := []TSpan{
		{Track: "w0", Stage: StageT1, Start: 0, End: 100},
		{Track: "w1", Stage: StageT1, Start: 0, End: 100},
		{Track: "w0", Stage: StageRate, Start: 100, End: 200},
		{Track: "coord", Stage: StageEncode, Start: 0, End: 200}, // envelope
	}
	r := BuildReport(spans, 2)
	if r.Total != 200 {
		t.Fatalf("total = %v", r.Total)
	}
	if r.Serial != 100 || r.SerialFrac != 0.5 {
		t.Fatalf("serial = %v (%.2f)", r.Serial, r.SerialFrac)
	}
	if r.AchievedPar != 1.5 {
		t.Fatalf("achieved = %.2f", r.AchievedPar)
	}
	// Amdahl: 1/(0.5 + 0.5/2) = 1.333…
	if r.AmdahlBound < 1.32 || r.AmdahlBound > 1.34 {
		t.Fatalf("bound = %.3f", r.AmdahlBound)
	}
	if len(r.Stages) != 2 {
		t.Fatalf("stage rows: %+v", r.Stages)
	}
	t1row := r.Stages[0]
	if t1row.Name != "t1" || t1row.Wall != 100 || t1row.Busy != 200 || t1row.Par != 2 {
		t.Fatalf("t1 row: %+v", t1row)
	}
	if !strings.Contains(r.Table(), "Amdahl bound") {
		t.Fatal("table missing Amdahl line")
	}
}

func TestChromeTraceExport(t *testing.T) {
	one := OpTrace{
		TraceID: "j2k-1", Kind: "encode",
		Spans: []TSpan{
			{Track: "worker0", Name: "mct", Start: 0, End: 1500},
			{Track: "worker1", Name: "t1", Start: 500, End: 2500},
		},
		Counters: map[string]int64{"t1_blocks": 9},
	}
	two := OpTrace{
		TraceID: "j2k-2", Kind: "decode",
		Spans: []TSpan{{Track: "worker0", Name: "t2", Start: 100, End: 900}},
	}
	type proc struct {
		name                 string
		x, threads, counters int
	}
	for _, tc := range []struct {
		name string
		ops  []OpTrace
		want map[float64]proc
	}{
		{"one-op", []OpTrace{one}, map[float64]proc{
			1: {"j2k-1 (encode)", 2, 2, 1},
		}},
		{"multi-op", []OpTrace{one, two}, map[float64]proc{
			1: {"j2k-1 (encode)", 2, 2, 1},
			2: {"j2k-2 (decode)", 1, 1, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteChromeTrace(&buf, tc.ops...); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("invalid JSON: %v", err)
			}
			got := map[float64]proc{}
			tids := map[[2]float64]bool{}
			for _, e := range doc.TraceEvents {
				pid := e["pid"].(float64)
				p := got[pid]
				switch {
				case e["ph"] == "X":
					p.x++
					tids[[2]float64{pid, e["tid"].(float64)}] = true
				case e["name"] == "thread_name":
					p.threads++
				case e["name"] == "counters":
					p.counters++
				case e["name"] == "process_name":
					p.name = e["args"].(map[string]any)["name"].(string)
				}
				got[pid] = p
			}
			if len(got) != len(tc.want) {
				t.Fatalf("processes %+v, want %+v", got, tc.want)
			}
			threads := 0
			for pid, w := range tc.want {
				if got[pid] != w {
					t.Fatalf("pid %v: %+v, want %+v", pid, got[pid], w)
				}
				threads += w.threads
			}
			if len(tids) != threads {
				t.Fatalf("spans on %d threads, want %d", len(tids), threads)
			}
		})
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100) // bucket (96, 104]
	}
	h.Observe(1 << 20) // bucket (983040, 1048576]
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q != 100 {
		t.Fatalf("p50 = %d, want 100", q)
	}
	if q := h.Quantile(1.0); q != 1015808 {
		t.Fatalf("p100 = %d, want 1015808", q)
	}
}

// TestHistogramLogLinearBuckets pins the bucket layout: bounds rise
// strictly from 1ns to 2^40ns, every observation lands in the bucket
// whose bounds hold it, no bucket holding more than one value is wider
// than 1/8 of the values it holds, and a quantile read off a single observation is within 1/16
// of it — a 40ms decode reads back as 40ms, not the 67.1ms top of its
// power-of-two bucket.
func TestHistogramLogLinearBuckets(t *testing.T) {
	if BucketBound(0) != 1 || BucketBound(NumHistBuckets-1) != 1<<40 {
		t.Fatalf("bounds span %d..%d, want 1..2^40", BucketBound(0), BucketBound(NumHistBuckets-1))
	}
	for i := 1; i < NumHistBuckets; i++ {
		lo, hi := BucketBound(i-1), BucketBound(i)
		if hi <= lo {
			t.Fatalf("bucket %d bound %d not above %d", i, hi, lo)
		}
		if hi-lo > 1 && 8*(hi-lo) > lo+1 {
			t.Fatalf("bucket %d (%d, %d] wider than 1/8 of its values", i, lo, hi)
		}
	}
	rng := rand.New(rand.NewSource(1))
	vals := []int64{1, 2, 7, 8, 9, 15, 16, 17, 100, 1 << 20, 40_000_000, 1 << 40, 1<<40 + 1}
	for i := 0; i < 2000; i++ {
		vals = append(vals, 1+rng.Int63n(1<<uint(1+rng.Intn(40))))
	}
	for _, v := range vals {
		b := bucketOf(v)
		if b < NumHistBuckets-1 && v > BucketBound(b) || b > 0 && v <= BucketBound(b-1) {
			t.Fatalf("%dns landed in bucket %d, bounds (%d, %d]", v, b, BucketBound(b-1), BucketBound(b))
		}
		if v > 1<<40 {
			continue
		}
		var h Histogram
		h.Observe(v)
		q := h.Quantile(0.5)
		if d := q - v; 16*max(d, -d) > v {
			t.Fatalf("p50 of one %dns observation = %d, off by more than 1/16", v, q)
		}
	}
}

func TestSerialTimeSweep(t *testing.T) {
	spans := []TSpan{
		{Track: "a", Stage: StageT1, Start: 0, End: 50},
		{Track: "b", Stage: StageT1, Start: 25, End: 75},
		// gap 75..90 (serial: nothing running)
		{Track: "a", Stage: StageRate, Start: 90, End: 100},
	}
	// Serial: [0,25) one active + [50,75) one active + [75,90) gap +
	// [90,100) one active = 25+25+15+10 = 75.
	if got := serialTime(spans, 0, 100); got != 75 {
		t.Fatalf("serial = %d, want 75", got)
	}
}

// TestOperationIsSmall pins the cost of scoping an operation: one
// WithOperation + Finish that records nothing allocates at most 8 KB.
// A recorder holds its spans, counters and one outcome; the duration
// histograms live only in the registry.
func TestOperationIsSmall(t *testing.T) {
	prev := SwapAggregate(nil)
	defer SwapAggregate(prev)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, r := WithOperation(context.Background(), "encode")
			r.Finish()
		}
	})
	if got := res.AllocedBytesPerOp(); got > 8<<10 {
		t.Fatalf("WithOperation + Finish allocates %d B, want <= %d", got, 8<<10)
	}
}

// TestOperationRollsUpOnce pins the roll-up: Finish adds the counters
// and the single outcome to the registry once however often it runs,
// and a failure outranks a completion recorded before or after it.
func TestOperationRollsUpOnce(t *testing.T) {
	reg := NewRegistry()
	cls := ClassOf(true, true, false, true)
	r := newRecorder(reg, "decode")
	r.Add(CtrT1Coded, 7)
	r.OpDone(cls, 3*time.Millisecond)
	if reg.OpsActive() != 1 || reg.Ops(cls) != 0 || reg.Counter(CtrT1Coded) != 0 {
		t.Fatal("registry changed before Finish")
	}
	r.Finish()
	r.Finish()
	if reg.OpsActive() != 0 || reg.Ops(cls) != 1 || reg.Counter(CtrT1Coded) != 7 {
		t.Fatalf("after Finish: active %d, ops %d, t1_coded %d", reg.OpsActive(), reg.Ops(cls), reg.Counter(CtrT1Coded))
	}
	if h := reg.SLO(cls); h.Count() != 1 || h.Sum() != int64(3*time.Millisecond) {
		t.Fatalf("SLO histogram: %d observations, %dns", h.Count(), h.Sum())
	}
	if got := r.Outcome().String(); got != "decode_lossy_untiled_ht 3ms" {
		t.Fatalf("outcome line %q", got)
	}

	f := newRecorder(reg, "decode")
	f.OpFailed()
	f.OpDone(cls, time.Millisecond)
	f.Finish()
	if o := f.Outcome(); !o.Failed || o.Done || reg.OpErrors() != 1 || reg.Ops(cls) != 1 {
		t.Fatalf("failed op: outcome %+v, errors %d, ops %d", o, reg.OpErrors(), reg.Ops(cls))
	}
}

// TestTraceTaskNamedAfterKind runs the Go execution tracer over one
// operation and checks its runtime/trace task carries the operation's
// kind as its name.
func TestTraceTaskNamedAfterKind(t *testing.T) {
	var buf bytes.Buffer
	if err := rtrace.Start(&buf); err != nil {
		t.Skipf("execution tracer busy: %v", err)
	}
	const kind = "decode-task-name-probe"
	_, r := WithOperation(context.Background(), kind)
	ln := r.Acquire()
	ln.Begin(StageT2, 0, 0).End()
	ln.Release()
	r.Finish()
	rtrace.Stop()
	if !bytes.Contains(buf.Bytes(), []byte(kind)) {
		t.Fatalf("execution trace names no task %q", kind)
	}
}
