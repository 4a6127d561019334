// Command j2kinfo dumps the structure of a JPEG2000 codestream
// produced by this library: header parameters and the packet layout
// of every tile, with the byte budgets of each progression prefix. It
// parses the stream as the decoder does, but decodes no code block.
package main

import (
	"flag"
	"fmt"
	"os"

	"j2kcell/internal/cli"
	"j2kcell/internal/codec"
)

func main() {
	in := flag.String("in", "", "input .j2c codestream")
	packets := flag.Bool("packets", false, "list every packet")
	stats := flag.Bool("stats", false, "per-subband and per-layer byte breakdown, marker segment sizes")
	maxPixels := flag.Int64("max-pixels", 0, "reject headers declaring more than this many samples (0 = library default)")
	maxDim := flag.Int("max-dim", 0, "reject headers wider or taller than this (0 = library default)")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "j2kinfo: need -in file.j2c")
		os.Exit(cli.ExitUsage)
	}
	data, err := os.ReadFile(*in)
	check(err)
	info, err := codec.InspectLimits(data, *cli.Limits(*maxPixels, *maxDim))
	check(err)

	h := info.Header
	mode := "lossy 9/7"
	if h.Lossless {
		mode = "lossless 5/3"
	}
	prog := "LRCP"
	if h.Progression == 1 {
		prog = "RLCP"
	}
	coder := "MQ"
	if h.HT {
		coder = "HT (high throughput)"
	}
	fmt.Printf("%s: %dx%d, %d component(s) @ %d bit, %s\n", *in, h.W, h.H, h.NComp, h.Depth, mode)
	fmt.Printf("  %d DWT levels, %dx%d code blocks, %d layer(s), %s progression, termall=%v\n",
		h.Levels, h.CBW, h.CBH, h.Layers, prog, h.TermAll)
	fmt.Printf("  block coder: %s\n", coder)
	fmt.Printf("  %d tile(s), %d packets, %d packet bytes, %d total\n\n",
		len(codec.TileGrid(h.W, h.H, h.TileW, h.TileH)), len(info.Packets), info.BytesAtResolution(h.Levels), len(data))

	fmt.Println("bytes by resolution prefix (thumbnail cost under RLCP):")
	for r := 0; r <= h.Levels; r++ {
		fmt.Printf("  res <= %d: %8d bytes\n", r, info.BytesAtResolution(r))
	}
	if h.Layers > 1 {
		fmt.Println("bytes by layer prefix (quality cost under LRCP):")
		for l := 1; l <= h.Layers; l++ {
			fmt.Printf("  layers < %d: %8d bytes\n", l+0, info.BytesAtLayer(l))
		}
	}
	if *stats {
		printStats(info, len(data))
	}
	if *packets {
		fmt.Println("\npackets (tile, layer, resolution, component; offset within the tile body):")
		for _, p := range info.Packets {
			fmt.Printf("  T%d L%d R%d C%d  @%-8d %6d bytes, %3d blocks\n",
				p.Tile, p.Layer, p.Res, p.Comp, p.Offset, p.Bytes, p.Blocks)
		}
	}
}

// printStats renders the -stats breakdown: where the bytes of the
// stream live — framing markers, Tier-2 packet headers, and block data
// split by subband (summed over tiles) and by quality layer.
func printStats(info *codec.StreamInfo, total int) {
	h := info.Header
	fmt.Println("marker segments:")
	markerTotal := 0
	for _, m := range info.Markers {
		fmt.Printf("  %-4s @%-8d %6d bytes\n", m.Name, m.Offset, m.Len)
		markerTotal += m.Len
	}
	fmt.Printf("  framing total %d bytes, packet headers %d bytes\n",
		markerTotal, info.HeaderOverhead())

	fmt.Println("block data by subband (component / band at image size, all tiles):")
	dataTotal := 0
	for _, b := range info.Bands {
		if b.Bytes == 0 && b.Blocks == 0 {
			continue
		}
		fmt.Printf("  C%d %2s L%d (%4dx%-4d) %8d bytes  %4d block(s)\n",
			b.Comp, b.Band.Orient, b.Band.Level, b.Band.W, b.Band.H, b.Bytes, b.Blocks)
		dataTotal += b.Bytes
	}
	fmt.Printf("  block data total %d bytes (%.1f%% of stream)\n",
		dataTotal, 100*float64(dataTotal)/float64(total))

	fmt.Println("packet bytes by resolution:")
	prev := 0
	for r := 0; r <= h.Levels; r++ {
		at := info.BytesAtResolution(r)
		fmt.Printf("  res %d: %8d bytes\n", r, at-prev)
		prev = at
	}
	if h.Layers > 1 {
		fmt.Println("packet bytes by layer:")
		lprev := 0
		for l := 1; l <= h.Layers; l++ {
			at := info.BytesAtLayer(l)
			fmt.Printf("  layer %d: %8d bytes\n", l-1, at-lprev)
			lprev = at
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "j2kinfo:", err)
		os.Exit(cli.ExitCode(err))
	}
}
