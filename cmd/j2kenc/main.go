// Command j2kenc transcodes a BMP image to a JPEG2000 codestream —
// the workflow of the paper's evaluation (JasPer transcoding
// waltham_dial.bmp). BMP, PGM and PPM inputs are detected by
// extension; with -dial it generates the synthetic dial workload
// instead of reading a file.
//
// Observability (see DESIGN.md §6): -report prints the per-stage
// wall/busy breakdown with the measured Amdahl serial fraction,
// -trace writes a chrome://tracing timeline with one track per
// worker, -metrics dumps the counter set (queue claims, MQ renorm
// chunks, DWT bytes moved, pool hit rates), and -pprof serves
// net/http/pprof plus /metrics while encoding.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"j2kcell"
	"j2kcell/internal/bmp"
	"j2kcell/internal/cli"
	"j2kcell/internal/obs"
	"j2kcell/internal/pnm"
)

func main() {
	in := flag.String("in", "", "input BMP file (omit with -dial)")
	out := flag.String("out", "out.j2c", "output JPEG2000 codestream")
	dial := flag.Int("dial", 0, "generate an NxN synthetic dial instead of reading -in")
	lossless := flag.Bool("lossless", true, "reversible 5/3 path (JasPer default)")
	rate := flag.Float64("rate", 0, "lossy rate target as a fraction of raw size (e.g. 0.1); implies -lossless=false")
	levels := flag.Int("levels", 5, "DWT decomposition levels")
	cb := flag.Int("cb", 64, "code block size (16, 32 or 64)")
	ht := flag.Bool("ht", false, "use the high-throughput (Part 15) block coder instead of the MQ coder")
	resilience := flag.Bool("resilience", false, "emit the Part-1 error-resilience tools (SOP markers, per-pass termination, segmentation symbols) so damaged streams stay salvageable")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "Tier-1 worker goroutines (1 = sequential)")
	traceOut := flag.String("trace", "", "write a Chrome trace JSON timeline to this file")
	report := flag.Bool("report", false, "print the per-stage wall-time / serial-fraction table")
	metrics := flag.Bool("metrics", false, "print the counter and stage-latency table after encoding")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. :6060)")
	timeout := flag.Duration("timeout", 0, "abort the encode after this long (0 = no limit; exit code 5 on expiry)")
	flag.Parse()

	var img *j2kcell.Image
	switch {
	case *dial > 0:
		img = j2kcell.TestImage(*dial, *dial, 42)
	case *in != "":
		f, err := os.Open(*in)
		check(err)
		switch strings.ToLower(filepath.Ext(*in)) {
		case ".pgm", ".ppm", ".pnm":
			img, err = pnm.Decode(f)
		default:
			img, err = bmp.Decode(f)
		}
		f.Close()
		check(err)
	default:
		fmt.Fprintln(os.Stderr, "j2kenc: need -in file.bmp or -dial N")
		os.Exit(2)
	}

	opt := j2kcell.Options{Lossless: *lossless, Levels: *levels, CBW: *cb, CBH: *cb, HT: *ht, Resilience: *resilience}
	if *rate > 0 {
		opt.Lossless = false
		opt.Rate = *rate
	}

	observe := *traceOut != "" || *report || *metrics || *pprofAddr != ""
	if *pprofAddr != "" {
		addr, err := cli.ServeObservability(*pprofAddr)
		check(err)
		fmt.Fprintf(os.Stderr, "j2kenc: serving /metrics, /debug/pprof on %s\n", addr)
	}

	ctx, cancel := cli.Context(*timeout)
	defer cancel()
	// The encode runs as one observed operation: the context carries a
	// per-operation recorder whose totals roll into the aggregate
	// registry (the /metrics source) when the operation finishes.
	var rec *obs.Recorder
	if observe {
		ctx, rec = obs.WithOperation(ctx, "encode")
	}
	start := time.Now()
	data, stats, err := j2kcell.EncodeParallelContext(ctx, img, opt, *workers)
	check(err)
	if strings.ToLower(filepath.Ext(*out)) == ".jp2" {
		data = j2kcell.WrapJP2(img, data)
	}
	elapsed := time.Since(start)

	check(os.WriteFile(*out, data, 0o644))
	raw := img.W * img.H * len(img.Comps)
	fmt.Printf("%dx%dx%d -> %s: %d bytes (%.2f:1) in %v (%d blocks, %d coding passes)\n",
		img.W, img.H, len(img.Comps), *out, len(data),
		float64(raw)/float64(len(data)), elapsed.Round(time.Millisecond),
		stats.Blocks, stats.TotalPasses)

	check(cli.Epilogue(rec, *workers, *report, *metrics, *traceOut))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "j2kenc:", err)
		os.Exit(cli.ExitCode(err))
	}
}
