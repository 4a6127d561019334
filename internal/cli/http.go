package cli

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"j2kcell/internal/obs"
)

// Shared observability HTTP endpoint of the j2k* commands. One mux
// serves the three debug surfaces DESIGN.md §6 documents:
//
//	/metrics      — the process-wide aggregate registry in Prometheus
//	                text exposition format (counters, per-class
//	                operation totals, stage and SLO latency histograms)
//	/debug/vars   — the same aggregate snapshot as expvar JSON
//	/debug/pprof/ — net/http/pprof profiles
//
// The commands build this mux explicitly instead of touching
// http.DefaultServeMux, so importing a library that registers default
// handlers can never widen what the flag exposes.

// MetricsHandler serves the aggregate observability registry in
// Prometheus text exposition format (version 0.0.4).
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.Aggregate().WritePrometheus(w); err != nil {
			// Headers are already out; nothing useful to do but log-free
			// best effort — the scraper sees a truncated body and retries.
			_ = err
		}
	})
}

// ObsMux returns the shared observability mux.
func ObsMux() *http.ServeMux {
	obs.PublishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler())
	mux.Handle("/debug/vars", expvar.Handler())
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
