package cli

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"

	"j2kcell"
	"j2kcell/internal/obs"
)

// Shared observability HTTP endpoint of the j2k* commands. One mux
// serves the two debug surfaces DESIGN.md §6 documents:
//
//	/metrics      — the process-wide aggregate registry in Prometheus
//	                text exposition format (counters, per-class
//	                operation totals, stage and SLO latency histograms),
//	                followed by the shared scheduler's series
//	/debug/pprof/ — net/http/pprof profiles
//
// The commands build this mux explicitly instead of touching
// http.DefaultServeMux, so importing a library that registers default
// handlers can never widen what the flag exposes.

// MetricsHandler serves the aggregate observability registry in
// Prometheus text exposition format (version 0.0.4), then the
// process-default scheduler's series, read from its Stats at scrape
// time.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Headers are already out, so a write error is not reported:
		// the scraper sees a truncated body and retries.
		if obs.Aggregate().WritePrometheus(w) == nil {
			writeSchedulerMetrics(w, j2kcell.SchedulerStats())
		}
	})
}

// writeSchedulerMetrics writes the shared scheduler's gauges and
// counters, sorted by name.
func writeSchedulerMetrics(w io.Writer, st j2kcell.SchedStats) {
	for _, m := range []struct {
		name, help, typ string
		v               int64
	}{
		{"j2k_scheduler_active_ops", "Operations admitted and running.", "gauge", int64(st.ActiveOps)},
		{"j2k_scheduler_admit_rejects_total", "Operations rejected with ErrOverloaded.", "counter", st.AdmitRejects},
		{"j2k_scheduler_admit_waits_total", "Operations that waited in the admission queue.", "counter", st.AdmitWaits},
		{"j2k_scheduler_lanes_opened_total", "Pipelines that ran a stage eligible for helpers.", "counter", st.LanesOpened},
		{"j2k_scheduler_pool_claims_total", "Jobs claimed by stage helpers.", "counter", st.PoolClaims},
		{"j2k_scheduler_queue_depth", "Operations waiting in the admission queue.", "gauge", int64(st.QueueDepth)},
		{"j2k_scheduler_workers", "Live stage helper goroutines.", "gauge", int64(st.WorkersLive)},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", m.name, m.help, m.name, m.typ, m.name, m.v)
	}
}

// ObsMux returns the shared observability mux: /metrics and the
// /debug/pprof/ profiles, nothing else.
func ObsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeObservability binds the shared observability mux on addr (":0"
// picks a free port) and serves it on a background goroutine for the
// life of the process. It returns the bound address, so callers can print a
// scrape URL — or scrape themselves (j2kload -selfcheck).
func ServeObservability(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("metrics listener: %w", err)
	}
	srv := &http.Server{Handler: ObsMux()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
