package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanRecording(t *testing.T) {
	r := NewRecorder()
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
	if h := r.Hist(StageDWTVert); h.Count() != 1 {
		t.Fatalf("histogram count = %d", h.Count())
	}
}

func TestLaneReuseKeepsStableIDs(t *testing.T) {
	r := NewRecorder()
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
	r.Close()
	if r.MetricsTable() == "" {
		t.Fatal("nil metrics table empty")
	}
}

func TestCountersAndClaims(t *testing.T) {
	r := NewRecorder()
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
	spans := []TSpan{
		{Track: "worker0", Name: "mct", Start: 0, End: 1500},
		{Track: "worker1", Name: "t1", Start: 500, End: 2500},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, map[string]int64{"t1_blocks": 9}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var xEvents, threadNames int
	tids := map[float64]bool{}
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			xEvents++
			tids[e["tid"].(float64)] = true
		case "M":
			if e["name"] == "thread_name" {
				threadNames++
			}
		}
	}
	if xEvents != 2 || threadNames != 2 || len(tids) != 2 {
		t.Fatalf("events: %d X, %d thread names, %d tids", xEvents, threadNames, len(tids))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100) // bucket 2^7
	}
	h.Observe(1 << 20)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q != 128 {
		t.Fatalf("p50 = %d, want 128", q)
	}
	if q := h.Quantile(1.0); q != 1<<20 {
		t.Fatalf("p100 = %d, want %d", q, 1<<20)
	}
	if h.String() == "empty" {
		t.Fatal("string of non-empty histogram")
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
