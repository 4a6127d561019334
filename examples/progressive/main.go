// Progressive demonstrates JPEG2000's two progression axes from a
// single codestream: quality scalability (decode fewer layers of a
// multi-layer stream) and resolution scalability (decode a smaller
// image by discarding fine wavelet levels) — the features that make
// the format suit archives and streaming viewers.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"j2kcell"
)

func main() {
	img := j2kcell.TestImage(512, 512, 3)
	raw := img.W * img.H * len(img.Comps)

	// One stream, three embedded quality layers: 2%, 10%, 40% of raw.
	data, _, err := j2kcell.EncodeParallelContext(context.Background(), img,
		j2kcell.Options{LayerRates: []float64{0.02, 0.1, 0.4}}, runtime.GOMAXPROCS(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stream: %d bytes (%.1f:1), 3 quality layers\n\n",
		len(data), float64(raw)/float64(len(data)))

	fmt.Println("quality-progressive decode (same bytes, more layers):")
	for l := 1; l <= 3; l++ {
		got, err := j2kcell.DecodeWith(data, j2kcell.DecodeOptions{MaxLayers: l})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d layer(s): PSNR %6.2f dB\n", l, img.PSNR(got))
	}

	fmt.Println("\nresolution-progressive decode (thumbnails without full decode):")
	for _, d := range []int{0, 1, 2, 3} {
		got, err := j2kcell.DecodeWith(data, j2kcell.DecodeOptions{DiscardLevels: d})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  discard %d level(s): %4dx%-4d image\n", d, got.W, got.H)
	}

	fmt.Println("\nwindow decode (random spatial access, Tier-1 skipped elsewhere):")
	win := j2kcell.Rect{X0: 180, Y0: 200, W: 96, H: 64}
	got, err := j2kcell.DecodeWith(data, j2kcell.DecodeOptions{Region: win})
	if err != nil {
		log.Fatal(err)
	}
	full, err := j2kcell.Decode(data)
	if err != nil {
		log.Fatal(err)
	}
	exact := got.Equal(full.SubImage(win.X0, win.Y0, win.W, win.H))
	fmt.Printf("  window %+v -> %dx%d image, matches full-decode crop: %v\n",
		win, got.W, got.H, exact)
}
