// Command j2kload drives scenario mixes through the codec at
// configurable concurrency — the load harness for the per-operation
// observability layer (DESIGN.md §6). Each operation runs under its
// own context-scoped recorder (obs.WithOperation), so concurrent
// encodes and decodes keep disjoint span sets and distinct trace IDs
// while their totals roll up into the process-wide aggregate registry
// that /metrics serves.
//
// Scenarios:
//
//	thumbnail — lossy rate-constrained encode of a half-size image
//	            (MQ, untiled): the latency-sensitive preview path
//	archival  — lossless tiled encode: the bounded-memory bulk path
//	window    — random spatial access on a pre-encoded stream,
//	            alternating window decodes with discard-level
//	            (reduced-resolution) decodes
//	ht        — alternating HT and MQ lossless encodes, so the SLO
//	            table splits the two coders into separate classes
//	corrupt   — best-effort decodes of pre-corrupted resilient streams
//	            (bit flips and truncations in the tile bodies): the
//	            damage-containment path, exporting j2k_resync_total
//	            and j2k_concealed_blocks_total
//
// After the run it prints per-scenario throughput and the per-class
// SLO latency table (p50/p95/p99) from the aggregate registry.
// -metrics serves the shared observability mux during (and with
// -hold, after) the run; -selfcheck scrapes that endpoint over real
// HTTP, parses the Prometheus exposition, and fails the process if it
// is malformed or records zero operations — the CI smoke path.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"j2kcell"
	"j2kcell/internal/cli"
	"j2kcell/internal/obs"
)

// scenario is one operation mix entry: setup runs once (untimed,
// unobserved), run executes the i-th operation of this scenario.
type scenario struct {
	name  string
	setup func(size, opworkers int) error
	run   func(ctx context.Context, i int) error
}

func main() {
	n := flag.Int("n", 48, "total operations across all scenarios")
	conc := flag.Int("c", minInt(runtime.GOMAXPROCS(0), 4), "concurrent operations")
	size := flag.Int("size", 384, "base image edge in pixels")
	opworkers := flag.Int("opworkers", runtime.GOMAXPROCS(0), "pipeline workers inside each operation")
	names := flag.String("scenarios", "thumbnail,archival,window,ht", "comma-separated scenario mix (thumbnail, archival, window, ht, corrupt)")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (e.g. :0)")
	hold := flag.Duration("hold", 0, "keep serving -metrics this long after the run")
	traceOut := flag.String("trace", "", "write a Chrome trace interleaving the first operations as separate processes")
	traceMax := flag.Int("trace-max", 32, "cap on operations captured for -trace")
	selfcheck := flag.Bool("selfcheck", false, "scrape own /metrics after the run and verify the exposition (implies -metrics :0 if unset)")
	opTimeout := flag.Duration("op-timeout", 30*time.Second, "per-operation timeout")
	flag.Parse()

	if *selfcheck && *metricsAddr == "" {
		*metricsAddr = "127.0.0.1:0"
	}
	var boundAddr string
	if *metricsAddr != "" {
		addr, err := cli.ServeObservability(*metricsAddr)
		fail(err)
		boundAddr = addr
		fmt.Printf("metrics: http://%s/metrics\n", boundAddr)
	}

	all := scenarios()
	var mix []*scenario
	for _, nm := range strings.Split(*names, ",") {
		nm = strings.TrimSpace(nm)
		if nm == "" {
			continue
		}
		s, ok := all[nm]
		if !ok {
			fmt.Fprintf(os.Stderr, "j2kload: unknown scenario %q (have: thumbnail, archival, window, ht, corrupt)\n", nm)
			os.Exit(cli.ExitUsage)
		}
		mix = append(mix, s)
	}
	if len(mix) == 0 || *n <= 0 || *conc <= 0 {
		fmt.Fprintln(os.Stderr, "j2kload: need at least one scenario, -n > 0 and -c > 0")
		os.Exit(cli.ExitUsage)
	}
	for _, s := range mix {
		fail(s.setup(*size, *opworkers))
	}

	// Goroutine high-water mark, sampled while the run is in flight:
	// every multi-worker operation's stages multiplex onto the shared
	// process-wide scheduler (DESIGN.md §12), which holds this at
	// O(GOMAXPROCS + c) regardless of opworkers.
	gBase := runtime.NumGoroutine()
	gHWM := int64(gBase)
	hwmStop := make(chan struct{})
	var hwmDone sync.WaitGroup
	hwmDone.Add(1)
	go func() {
		defer hwmDone.Done()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-hwmStop:
				return
			case <-tick.C:
				if g := int64(runtime.NumGoroutine()); g > atomic.LoadInt64(&gHWM) {
					atomic.StoreInt64(&gHWM, g)
				}
			}
		}
	}()

	// Drive: operation i runs scenario i%len(mix) on one of -c worker
	// goroutines. Every operation gets its own context-scoped recorder
	// and trace ID; failures are counted per scenario, never aborting
	// the run (a load harness should survive individual errors).
	type tally struct{ ops, errs atomic.Int64 }
	tallies := make([]tally, len(mix))
	var traceMu sync.Mutex
	var traces []obs.OpTrace
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				// i/len(mix) is this scenario's own op sequence number, so
				// scenarios that alternate variants by parity (window, ht)
				// actually see both variants regardless of the mix width.
				si := i % len(mix)
				s := mix[si]
				ctx, cancel := context.WithTimeout(context.Background(), *opTimeout)
				opCtx, rec := obs.WithOperation(ctx, "load:"+s.name)
				err := s.run(opCtx, i/len(mix))
				rec.Finish()
				cancel()
				tallies[si].ops.Add(1)
				if err != nil {
					tallies[si].errs.Add(1)
					fmt.Fprintf(os.Stderr, "j2kload: %s op %d (%s): %v\n", s.name, i, rec.TraceID(), err)
				}
				if *traceOut != "" {
					traceMu.Lock()
					if len(traces) < *traceMax {
						traces = append(traces, obs.OpTrace{
							TraceID:  rec.TraceID(),
							Kind:     rec.Kind(),
							Spans:    rec.TSpans(),
							Counters: rec.Counters(),
						})
					}
					traceMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(hwmStop)
	hwmDone.Wait()

	errTotal := int64(0)
	fmt.Printf("\n%d operations in %v (%.1f ops/s, concurrency %d, opworkers %d)\n",
		*n, elapsed.Round(time.Millisecond), float64(*n)/elapsed.Seconds(), *conc, *opworkers)
	for si, s := range mix {
		e := tallies[si].errs.Load()
		errTotal += e
		fmt.Printf("  %-10s %4d ops  %d errors\n", s.name, tallies[si].ops.Load(), e)
	}
	fmt.Printf("goroutines: high-water %d (baseline %d)\n", atomic.LoadInt64(&gHWM), gBase)
	st := j2kcell.SchedulerStats()
	fmt.Printf("scheduler: %d-wide, %d lanes opened, %d pool claims, %d admit waits, %d rejects\n",
		st.Workers, st.LanesOpened, st.PoolClaims, st.AdmitWaits, st.AdmitRejects)
	fmt.Println()
	fmt.Print(obs.Aggregate().SLOTable())

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fail(err)
		err = obs.WriteChromeTrace(f, traces...)
		fail(f.Close())
		fail(err)
		fmt.Printf("trace: %s (%d operations as separate processes)\n", *traceOut, len(traces))
	}

	if *selfcheck {
		hasCorrupt := false
		for _, s := range mix {
			if s.name == "corrupt" {
				hasCorrupt = true
			}
		}
		fail(runSelfcheck(boundAddr, *opworkers > 1, hasCorrupt))
	}
	if *hold > 0 && boundAddr != "" {
		fmt.Printf("holding %v for scrapes of http://%s/metrics\n", *hold, boundAddr)
		time.Sleep(*hold)
	}
	if errTotal > 0 {
		os.Exit(cli.ExitError)
	}
}

// runSelfcheck scrapes the served /metrics over real HTTP, parses the
// text exposition with the library's minimal scraper, and verifies
// the run left a coherent trail: some operations completed
// (j2k_operations_total > 0) and the SLO histograms observed them.
// When the run had multi-worker operations (requireSched), the three
// scheduler gauges (workers, active ops, queue depth) must be exported
// and its lanes-opened counter nonzero. When the mix included the
// corrupt scenario (requireResilient), the
// resilience counters must show that damage was actually encountered
// and contained: j2k_resync_total and j2k_concealed_blocks_total > 0.
func runSelfcheck(addr string, requireSched, requireResilient bool) error {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return fmt.Errorf("selfcheck: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selfcheck: /metrics returned %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		return fmt.Errorf("selfcheck: unexpected content type %q", ct)
	}
	samples, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return fmt.Errorf("selfcheck: malformed exposition: %w", err)
	}
	var opsTotal, sloCount, lanesOpened, resyncs, concealed float64
	schedGauges := 0
	for _, s := range samples {
		switch s.Name {
		case "j2k_operations_total":
			opsTotal += s.Value
		case "j2k_op_duration_seconds_count":
			sloCount += s.Value
		case "j2k_scheduler_lanes_opened_total":
			lanesOpened += s.Value
		case "j2k_resync_total":
			resyncs += s.Value
		case "j2k_concealed_blocks_total":
			concealed += s.Value
		case "j2k_scheduler_workers", "j2k_scheduler_active_ops", "j2k_scheduler_queue_depth":
			schedGauges++
		}
	}
	if opsTotal <= 0 {
		return fmt.Errorf("selfcheck: j2k_operations_total is %v, want > 0", opsTotal)
	}
	if sloCount <= 0 {
		return fmt.Errorf("selfcheck: j2k_op_duration_seconds observed no operations")
	}
	if requireSched {
		if schedGauges < 3 {
			return fmt.Errorf("selfcheck: scheduler gauges missing from exposition (%d/3 present)", schedGauges)
		}
		if lanesOpened <= 0 {
			return fmt.Errorf("selfcheck: j2k_scheduler_lanes_opened_total is %v after a multi-worker run, want > 0", lanesOpened)
		}
	}
	if requireResilient {
		if resyncs <= 0 {
			return fmt.Errorf("selfcheck: j2k_resync_total is %v after the corrupt scenario, want > 0", resyncs)
		}
		if concealed <= 0 {
			return fmt.Errorf("selfcheck: j2k_concealed_blocks_total is %v after the corrupt scenario, want > 0", concealed)
		}
	}
	fmt.Printf("selfcheck ok: %d samples, %v operations recorded\n", len(samples), opsTotal)
	return nil
}

// scenarios builds the scenario table. Inputs are synthesized once in
// setup (outside any operation recorder) so the timed operations
// measure codec work, not workload generation.
func scenarios() map[string]*scenario {
	type enc struct {
		img *j2kcell.Image
		opt j2kcell.Options
		wk  int
	}
	mk := func(s *enc) func(ctx context.Context, i int) error {
		return func(ctx context.Context, _ int) error {
			_, _, err := j2kcell.EncodeParallelContext(ctx, s.img, s.opt, s.wk)
			return err
		}
	}

	thumb := &enc{}
	thumbnail := &scenario{name: "thumbnail"}
	thumbnail.setup = func(size, wk int) error {
		thumb.img = j2kcell.TestImage(size/2, size/2, 42)
		thumb.opt = j2kcell.Options{Lossless: false, Rate: 0.1, Levels: 4}
		thumb.wk = wk
		return nil
	}
	thumbnail.run = mk(thumb)

	arch := &enc{}
	archival := &scenario{name: "archival"}
	archival.setup = func(size, wk int) error {
		arch.img = j2kcell.TestImage(size, size, 7)
		arch.opt = j2kcell.Options{Lossless: true, TileW: size / 2, TileH: size / 2}
		arch.wk = wk
		return nil
	}
	archival.run = mk(arch)

	var winData []byte
	var winSize, winWk int
	window := &scenario{name: "window"}
	window.setup = func(size, wk int) error {
		img := j2kcell.TestImage(size, size, 99)
		data, _, err := j2kcell.Encode(img, j2kcell.Options{Lossless: true})
		winData, winSize, winWk = data, size, wk
		return err
	}
	window.run = func(ctx context.Context, i int) error {
		dopt := j2kcell.DecodeOptions{Workers: winWk}
		if i%2 == 0 {
			win := winSize / 4
			off := (i * 13) % (winSize - win)
			dopt.Region = j2kcell.Rect{X0: off, Y0: off, W: win, H: win}
		} else {
			dopt.DiscardLevels = 2
		}
		_, err := j2kcell.DecodeWithContext(ctx, winData, dopt)
		return err
	}

	var htImg *j2kcell.Image
	var htWk int
	ht := &scenario{name: "ht"}
	ht.setup = func(size, wk int) error {
		htImg = j2kcell.TestImage(size/2, size/2, 3)
		htWk = wk
		return nil
	}
	ht.run = func(ctx context.Context, i int) error {
		opt := j2kcell.Options{Lossless: true, HT: i%2 == 0}
		_, _, err := j2kcell.EncodeParallelContext(ctx, htImg, opt, htWk)
		return err
	}

	// corrupt: setup encodes one resilient stream (SOP/EPH markers,
	// segmentation symbols, per-pass termination) and pre-damages
	// deterministic variants — bit flips inside the tile bodies and
	// truncations — so the timed operations exercise resync and
	// block concealment, never workload generation.
	var corData [][]byte
	var corWk int
	corrupt := &scenario{name: "corrupt"}
	corrupt.setup = func(size, wk int) error {
		img := j2kcell.TestImage(size/2, size/2, 17)
		data, _, err := j2kcell.Encode(img, j2kcell.Options{
			Lossless: true, Resilience: true, TileW: size / 4, TileH: size / 4,
		})
		if err != nil {
			return err
		}
		sod := bytes.Index(data, []byte{0xFF, 0x93})
		if sod < 0 || len(data)-sod < 16 {
			return fmt.Errorf("corrupt: no tile body in seed stream")
		}
		body := sod + 2
		rng := rand.New(rand.NewSource(5))
		for v := 0; v < 16; v++ {
			m := append([]byte(nil), data...)
			if v%4 == 3 {
				m = m[:body+rng.Intn(len(m)-body)]
			} else {
				for k := 0; k <= v%3; k++ {
					m[body+rng.Intn(len(m)-body)] ^= byte(1 << rng.Intn(8))
				}
			}
			corData = append(corData, m)
		}
		corWk = wk
		return nil
	}
	corrupt.run = func(ctx context.Context, i int) error {
		img, rep, err := j2kcell.DecodeResilientContext(ctx, corData[i%len(corData)], j2kcell.DecodeOptions{Workers: corWk})
		if err != nil {
			return err
		}
		if img == nil || rep == nil {
			return fmt.Errorf("corrupt: best-effort decode returned nil image or report")
		}
		if rep.SalvagedBytes > rep.TotalBytes || rep.LostPackets > rep.TotalPackets {
			return fmt.Errorf("corrupt: inconsistent damage report: %v", rep)
		}
		return nil
	}

	return map[string]*scenario{
		"thumbnail": thumbnail,
		"archival":  archival,
		"window":    window,
		"ht":        ht,
		"corrupt":   corrupt,
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "j2kload:", err)
		os.Exit(cli.ExitCode(err))
	}
}
