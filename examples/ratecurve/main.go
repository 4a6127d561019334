// Ratecurve sweeps the PCRD rate target and prints the resulting
// rate-distortion curve — the operating characteristic a compression
// engineer tunes against. Quality must rise monotonically with rate;
// actual size must respect every budget.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"j2kcell"
)

func main() {
	img := j2kcell.TestImage(768, 768, 7)
	raw := img.W * img.H * len(img.Comps)
	fmt.Printf("rate-distortion sweep on %dx%d (%d raw bytes)\n", img.W, img.H, raw)
	fmt.Printf("%-8s %-12s %-10s %-10s %-10s\n", "target", "bytes", "bpp", "ratio", "PSNR (dB)")

	for _, rate := range []float64{0.02, 0.05, 0.10, 0.20, 0.40, 0.80} {
		data, _, err := j2kcell.EncodeParallelContext(context.Background(), img,
			j2kcell.Options{Rate: rate}, runtime.GOMAXPROCS(0))
		if err != nil {
			log.Fatal(err)
		}
		back, err := j2kcell.Decode(data)
		if err != nil {
			log.Fatal(err)
		}
		bpp := 8 * float64(len(data)) / float64(img.W*img.H)
		fmt.Printf("%-8.2f %-12d %-10.3f %-10.1f %-10.2f\n",
			rate, len(data), bpp, float64(raw)/float64(len(data)), img.PSNR(back))
		if len(data) > int(rate*float64(raw)) {
			log.Fatalf("budget exceeded at rate %.2f", rate)
		}
	}
}
