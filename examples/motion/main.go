// Motion encodes a sequence of frames as independent JPEG2000
// codestreams — Motion-JPEG2000, the workload of the Muta et al.
// system the paper compares against (intra-only video, used by
// digital cinema). Reports per-frame latency and aggregate throughput
// for the sequential and goroutine-parallel encoders.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"j2kcell"
)

func main() {
	const frames = 12
	w, h := 480, 270 // quarter-HD keeps the demo quick
	opt := j2kcell.Options{Rate: 0.1}

	// Pre-render the frames (a slowly rotating dial).
	seq := make([]*j2kcell.Image, frames)
	for i := range seq {
		seq[i] = j2kcell.TestImage(w, h, uint32(100+i))
	}
	raw := w * h * 3

	// Warm up (gain tables, allocator) so the comparison is fair.
	if _, _, err := j2kcell.EncodeParallelContext(context.Background(), seq[0], opt, 0); err != nil {
		log.Fatal(err)
	}

	run := func(name string, workers int) {
		start := time.Now()
		var bytes int
		for _, img := range seq {
			data, _, err := j2kcell.EncodeParallelContext(context.Background(), img, opt, workers)
			if err != nil {
				log.Fatal(err)
			}
			bytes += len(data)
		}
		el := time.Since(start)
		fmt.Printf("%-22s %2d frames in %8v  (%.1f fps, %.2f:1 compression)\n",
			name, frames, el.Round(time.Millisecond),
			float64(frames)/el.Seconds(), float64(frames*raw)/float64(bytes))
	}
	run("sequential", 1)
	run(fmt.Sprintf("parallel (%d workers)", runtime.GOMAXPROCS(0)), 0)

	// Every frame must decode to its source at the target quality.
	data, _, err := j2kcell.EncodeParallelContext(context.Background(), seq[0], opt, 0)
	if err != nil {
		log.Fatal(err)
	}
	back, err := j2kcell.Decode(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verification frame PSNR: %.2f dB at %.2f:1\n",
		seq[0].PSNR(back), float64(raw)/float64(len(data)))
}
