package cli

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"j2kcell"
	"j2kcell/internal/obs"
)

// TestObsMuxMetrics scrapes the shared mux the way Prometheus would:
// over HTTP, checking the exposition content type and that the body
// parses with the library's own minimal scraper.
func TestObsMuxMetrics(t *testing.T) {
	srv := httptest.NewServer(ObsMux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want text exposition 0.0.4", ct)
	}
	samples, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	var active, counters int
	for _, s := range samples {
		if s.Name == "j2k_operations_active" {
			active++
		}
		if strings.HasSuffix(s.Name, "_total") {
			counters++
		}
	}
	if active != 1 {
		t.Fatalf("j2k_operations_active appears %d times, want 1", active)
	}
	if counters == 0 {
		t.Fatal("no counter families exported")
	}
}

// TestObsMuxSchedulerSeries runs one 2-worker encode, which goes
// through the process-default scheduler, and scrapes /metrics: the
// exposition must parse and carry the scheduler's seven series with
// their types, sorted by name after the registry families. The mux
// serves /metrics and /debug/pprof/ only, so /debug/vars is 404.
func TestObsMuxSchedulerSeries(t *testing.T) {
	img := j2kcell.TestImage(96, 64, 3)
	if _, _, err := j2kcell.EncodeParallelContext(context.Background(), img, j2kcell.Options{Lossless: true}, 2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ObsMux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	values := map[string]float64{}
	for _, s := range samples {
		values[s.Name] = s.Value
	}
	var types []string // "name type" of every family, in exposition order
	for _, line := range strings.Split(string(body), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types = append(types, name)
		}
	}
	want := []string{
		"j2k_scheduler_active_ops gauge",
		"j2k_scheduler_admit_rejects_total counter",
		"j2k_scheduler_admit_waits_total counter",
		"j2k_scheduler_lanes_opened_total counter",
		"j2k_scheduler_pool_claims_total counter",
		"j2k_scheduler_queue_depth gauge",
		"j2k_scheduler_workers gauge",
	}
	if len(types) <= len(want) || !slices.Equal(types[len(types)-len(want):], want) {
		t.Fatalf("exposition does not end with the scheduler families\n got  %q\n want %q", types, want)
	}
	if types[len(types)-len(want)-1] != "j2k_spans_dropped_total counter" {
		t.Fatalf("scheduler families follow %q, want the registry's last family", types[len(types)-len(want)-1])
	}
	for _, w := range want {
		name, _, _ := strings.Cut(w, " ")
		if _, ok := values[name]; !ok {
			t.Fatalf("%s has a TYPE line but no sample", name)
		}
	}
	if values["j2k_scheduler_lanes_opened_total"] < 1 {
		t.Fatalf("j2k_scheduler_lanes_opened_total is %v after a 2-worker encode, want >= 1", values["j2k_scheduler_lanes_opened_total"])
	}

	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/vars status %s, want 404", resp.Status)
	}
}

// TestServeObsBindsEphemeralPort: ":0" must bind a real port and
// return the resolved address — j2kload -selfcheck depends on it.
func TestServeObsBindsEphemeralPort(t *testing.T) {
	addr, err := ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("ServeObservability returned unresolved address %q", addr)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("served /metrics status %s", resp.Status)
	}
}
