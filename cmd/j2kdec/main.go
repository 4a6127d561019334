// Command j2kdec decodes a JPEG2000 codestream produced by this
// library back to a raster image (BMP, or PGM/PPM by extension),
// verifying the full Tier-2 → Tier-1 → inverse DWT → inverse MCT path.
//
// Untrusted inputs are bounded two ways: -max-pixels / -max-dim cap
// what the stream's header may declare (rejected before allocation),
// and -timeout bounds wall time. Exit codes distinguish the failure:
// 1 I/O, 2 usage, 3 malformed/over-limit stream, 4 contained codec
// fault, 5 timeout, 6 partial (best-effort decode of a damaged
// stream).
//
// -best-effort decodes damaged streams as far as possible instead of
// failing: lost packets and code blocks are concealed as zero
// coefficients and the exit code reports partial success (6) so
// scripts can tell a salvaged image from an intact one.
// -damage-report additionally prints the structured loss map (per
// tile: lost packets, concealed blocks with affected pixel regions,
// resyncs, salvaged byte ratio).
//
// Observability matches j2kenc (see DESIGN.md §6), now covering the
// decode pipeline's stages (zero, t1, deq, idwt-h, idwt-v, imct):
// -report prints the per-stage wall/busy breakdown with the measured
// Amdahl serial fraction, -trace writes a chrome://tracing timeline
// with one track per worker, -metrics dumps the counter set (queue
// claims, Tier-1 decode partitions/singletons, DWT bytes moved, pool
// hit rates), and -pprof serves net/http/pprof plus /debug/vars and
// /metrics while decoding.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"j2kcell"
	"j2kcell/internal/bmp"
	"j2kcell/internal/cli"
	"j2kcell/internal/obs"
	"j2kcell/internal/pnm"
	"j2kcell/internal/simd"
)

func main() {
	in := flag.String("in", "", "input .j2c codestream")
	out := flag.String("out", "out.bmp", "output image (.bmp, .pgm or .ppm)")
	workers := flag.Int("workers", 0, "decode pipeline workers (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the decode after this long (0 = no limit)")
	maxPixels := flag.Int64("max-pixels", 0, "reject headers declaring more than this many samples (0 = library default)")
	maxDim := flag.Int("max-dim", 0, "reject headers wider or taller than this (0 = library default)")
	traceOut := flag.String("trace", "", "write a Chrome trace JSON timeline to this file")
	report := flag.Bool("report", false, "print the per-stage wall-time / serial-fraction table")
	metrics := flag.Bool("metrics", false, "print the counter and histogram table after decoding")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof, /debug/vars and /metrics on this address (e.g. :6060)")
	bestEffort := flag.Bool("best-effort", false, "decode a damaged stream as far as possible; exit 6 if anything was lost")
	damageReport := flag.Bool("damage-report", false, "print the per-tile damage report (implies -best-effort)")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "j2kdec: need -in file.j2c")
		os.Exit(cli.ExitUsage)
	}
	data, err := os.ReadFile(*in)
	check(err)

	observe := *traceOut != "" || *report || *metrics || *pprofAddr != ""
	if *pprofAddr != "" {
		addr, err := cli.ServeObservability(*pprofAddr)
		check(err)
		fmt.Fprintf(os.Stderr, "j2kdec: serving /metrics, /debug/vars, /debug/pprof on %s\n", addr)
	}

	ctx, cancel := cli.Context(*timeout)
	defer cancel()
	// As in j2kenc: the decode is one observed operation with its own
	// trace ID, rolled into the aggregate registry on finish.
	var op *obs.Op
	var rec *obs.Recorder
	if observe {
		ctx, op = obs.WithOperation(ctx, "decode")
		rec = op.Recorder()
	}
	dopt := j2kcell.DecodeOptions{
		Workers: *workers,
		Limits:  cli.Limits(*maxPixels, *maxDim),
	}
	start := time.Now()
	var img *j2kcell.Image
	var rep *j2kcell.DamageReport
	if *bestEffort || *damageReport {
		img, rep, err = j2kcell.DecodeResilientContext(ctx, data, dopt)
	} else {
		img, err = j2kcell.DecodeWithContext(ctx, data, dopt)
	}
	check(err)
	elapsed := time.Since(start)

	f, err := os.Create(*out)
	check(err)
	switch strings.ToLower(filepath.Ext(*out)) {
	case ".pgm", ".ppm", ".pnm":
		check(pnm.Encode(f, img))
	default:
		bimg := img
		if len(img.Comps) == 1 {
			// Expand grayscale to RGB for the BMP writer.
			bimg = j2kcell.NewImage(img.W, img.H, 3, img.Depth)
			for c := 0; c < 3; c++ {
				copy(bimg.Comps[c].Data, img.Comps[0].Data)
			}
		}
		check(bmp.Encode(f, bimg))
	}
	check(f.Close())
	fmt.Printf("%s: %dx%d decoded to %s in %v\n", *in, img.W, img.H, *out, elapsed.Round(time.Millisecond))
	if rep != nil && *damageReport {
		fmt.Println(rep.String())
		for _, td := range rep.Tiles {
			fmt.Printf("  tile %d: %d/%d packets lost, %d concealed blocks, %d resyncs, region {%d %d %d %d}\n",
				td.Index, td.LostPackets, td.TotalPackets, len(td.LostBlocks), td.Resyncs,
				td.Region.X0, td.Region.Y0, td.Region.W, td.Region.H)
		}
	}
	if rep != nil && rep.Damaged() {
		fmt.Fprintf(os.Stderr,
			"j2kdec: stream damaged: %d/%d packets and %d/%d blocks lost, %d resyncs, %.1f%% of payload salvaged\n",
			rep.LostPackets, rep.TotalPackets, rep.LostBlocks, rep.TotalBlocks,
			rep.Resyncs, 100*rep.SalvagedRatio())
	}

	if rec != nil {
		op.Finish()
		spans := rec.TSpans()
		if *report {
			fmt.Printf("trace %s: simd kernels: %s (available: %s)\n",
				op.TraceID(), simd.Kernel(), strings.Join(simd.Available(), ", "))
			fmt.Print(obs.BuildReport(spans, *workers).Table())
			fmt.Print(rec.SLOTable())
		}
		if *metrics {
			fmt.Print(rec.MetricsTable())
		}
		if *traceOut != "" {
			check(obs.WriteChromeTraceFile(*traceOut, spans, rec.Counters()))
			fmt.Printf("trace: %s (%d spans; open in chrome://tracing or ui.perfetto.dev)\n",
				*traceOut, len(spans))
		}
	}
	if rep != nil && rep.Damaged() {
		os.Exit(cli.ExitPartial)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "j2kdec:", err)
		os.Exit(cli.ExitCode(err))
	}
}
