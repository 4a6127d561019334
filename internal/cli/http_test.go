package cli

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// TestObsMuxExpvar checks /debug/vars returns JSON that includes the
// j2kcell aggregate snapshot PublishExpvar registers.
func TestObsMuxExpvar(t *testing.T) {
	srv := httptest.NewServer(ObsMux())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	snap, ok := doc["j2kcell"]
	if !ok {
		t.Fatal("/debug/vars missing j2kcell snapshot")
	}
	var fields map[string]any
	if err := json.Unmarshal(snap, &fields); err != nil {
		t.Fatalf("j2kcell snapshot not an object: %v", err)
	}
	for _, k := range []string{"counters", "ops_total", "ops_active", "op_errors"} {
		if _, ok := fields[k]; !ok {
			t.Fatalf("snapshot missing %q: %v", k, fields)
		}
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
