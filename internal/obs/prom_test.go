package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRegistry drives a fixed set of observations through the
// public recorder path (Add / OpDone / OpFailed / Finish→merge) into a
// fresh registry, with stage durations observed straight into the
// registry's histograms as Span.End does. Everything is deterministic
// — no wall-clock durations — so the exposition it produces is stable
// byte for byte. Five operations, one outcome each, finish in sequence
// to prove roll-up accumulation shows through the exposition.
func fixtureRegistry() *Registry {
	reg := NewRegistry()
	reg.Hist(StageT1).Observe(int64(900 * time.Microsecond))
	reg.Hist(StageT1).Observe(int64(3 * time.Millisecond))
	reg.Hist(StageRate).Observe(int64(250 * time.Microsecond))

	encCls := ClassOf(false, false, false, false)
	op := func(record func(r *Recorder)) {
		r := newRecorder(reg, "fixture")
		record(r)
		r.Finish()
	}
	op(func(r *Recorder) {
		r.Add(CtrQueueJobs, 12)
		r.Add(CtrT1Blocks, 5)
		r.Add(CtrDWTBytesMoved, 1<<20)
		r.OpDone(encCls, 8*time.Millisecond)
	})
	op(func(r *Recorder) { r.OpDone(encCls, 11*time.Millisecond) })
	op(func(r *Recorder) { r.OpDone(ClassOf(true, true, false, true), 400*time.Microsecond) })
	op(func(r *Recorder) { r.OpFailed() })
	op(func(r *Recorder) {
		r.Add(CtrT1Blocks, 3)
		r.OpDone(encCls, 9*time.Millisecond)
	})
	return reg
}

// TestPrometheusGolden pins the text exposition byte for byte: every
// counter family in declaration order, only-occurred operation
// classes, sparse cumulative le buckets with the mandatory +Inf, and
// the _sum/_count pairs. Regenerate with `go test ./internal/obs/
// -run TestPrometheusGolden -update` after an intentional format
// change.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prom_golden.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gotLines := strings.Split(buf.String(), "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("exposition diverges at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
		t.Fatal("exposition differs from golden (length only?)")
	}
}

// TestPrometheusParseBack closes the loop with the minimal scraper:
// write the fixture registry's exposition, parse it back, and verify
// the samples reproduce the registry's own accessors — including the
// merged totals from every recorder and cumulative-bucket invariants.
func TestPrometheusParseBack(t *testing.T) {
	reg := fixtureRegistry()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("scraper rejects our own exposition: %v", err)
	}

	find := func(name, labelKey, labelVal string) (float64, bool) {
		for _, s := range samples {
			if s.Name != name {
				continue
			}
			if labelKey != "" && s.Labels[labelKey] != labelVal {
				continue
			}
			return s.Value, true
		}
		return 0, false
	}
	mustFind := func(name, labelKey, labelVal string) float64 {
		t.Helper()
		v, ok := find(name, labelKey, labelVal)
		if !ok {
			t.Fatalf("sample %s{%s=%q} missing", name, labelKey, labelVal)
		}
		return v
	}

	encCls := ClassOf(false, false, false, false).String()
	decCls := ClassOf(true, true, false, true).String()
	if v := mustFind("j2k_t1_blocks_total", "", ""); v != 8 {
		t.Fatalf("t1_blocks_total = %v, want 8 (5+3 merged)", v)
	}
	if v := mustFind("j2k_queue_jobs_total", "", ""); v != 12 {
		t.Fatalf("queue_jobs_total = %v", v)
	}
	if v := mustFind("j2k_operations_total", "class", encCls); v != 3 {
		t.Fatalf("operations_total{%s} = %v, want 3", encCls, v)
	}
	if v := mustFind("j2k_operations_total", "class", decCls); v != 1 {
		t.Fatalf("operations_total{%s} = %v, want 1", decCls, v)
	}
	if v := mustFind("j2k_operation_errors_total", "", ""); v != 1 {
		t.Fatalf("operation_errors_total = %v", v)
	}
	if v := mustFind("j2k_operations_active", "", ""); v != 0 {
		t.Fatalf("operations_active = %v", v)
	}
	if v := mustFind("j2k_op_duration_seconds_count", "class", encCls); v != 3 {
		t.Fatalf("op_duration count{%s} = %v, want 3", encCls, v)
	}
	wantSum := (8*time.Millisecond + 11*time.Millisecond + 9*time.Millisecond).Seconds()
	if v := mustFind("j2k_op_duration_seconds_sum", "class", encCls); v < wantSum*0.999 || v > wantSum*1.001 {
		t.Fatalf("op_duration sum{%s} = %v, want ~%v", encCls, v, wantSum)
	}
	if v := mustFind("j2k_stage_duration_seconds_count", "stage", StageT1.String()); v != 2 {
		t.Fatalf("stage_duration count{t1} = %v, want 2", v)
	}

	// Histogram invariants: within each labeled series, le buckets are
	// cumulative (non-decreasing) and the +Inf bucket equals _count.
	type key struct{ name, label string }
	lastBucket := map[key]float64{}
	infBucket := map[key]float64{}
	for _, s := range samples {
		if !strings.HasSuffix(s.Name, "_bucket") {
			continue
		}
		k := key{s.Name, s.Labels["class"] + s.Labels["stage"]}
		if s.Value < lastBucket[k] {
			t.Fatalf("non-cumulative buckets in %s{%v}: %v after %v", s.Name, s.Labels, s.Value, lastBucket[k])
		}
		lastBucket[k] = s.Value
		if s.Labels["le"] == "+Inf" {
			infBucket[k] = s.Value
		}
	}
	for _, s := range samples {
		if !strings.HasSuffix(s.Name, "_count") {
			continue
		}
		base := strings.TrimSuffix(s.Name, "_count")
		k := key{base + "_bucket", s.Labels["class"] + s.Labels["stage"]}
		if inf, ok := infBucket[k]; ok && inf != s.Value {
			t.Fatalf("%s{%v}: +Inf bucket %v != count %v", s.Name, s.Labels, inf, s.Value)
		}
	}
}

// TestParsePrometheusRejectsMalformed locks the scraper's validation:
// each corpus entry is one broken exposition that must not parse.
func TestParsePrometheusRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad comment":      "# BOGUS j2k_x counter\n",
		"bad type":         "# TYPE j2k_x matrix\n",
		"no value":         "j2k_x\n",
		"bad value":        "j2k_x twelve\n",
		"bad name":         "9starts_with_digit 1\n",
		"open labels":      "j2k_x{class=\"a\" 1\n",
		"unquoted label":   "j2k_x{class=a} 1\n",
		"dangling escape":  "j2k_x{class=\"a\\\"} 1",
		"bad escape":       "j2k_x{class=\"a\\q\"} 1\n",
		"label without eq": "j2k_x{class} 1\n",
	}
	for name, in := range cases {
		if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed %q without error", name, in)
		}
	}
}

// TestTraceIDsDistinct pins the operation trace-ID contract: every
// minted ID is unique within a process and carries the j2k- prefix
// the load harness greps for.
func TestTraceIDsDistinct(t *testing.T) {
	reg := NewRegistry()
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := reg.nextTraceID()
		if !strings.HasPrefix(id, "j2k-") {
			t.Fatalf("trace ID %q missing prefix", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q after %d mints", id, i)
		}
		seen[id] = true
	}
}
