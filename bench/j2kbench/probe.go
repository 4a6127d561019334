package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The shared host this benchmark runs on changes speed by 20–50% for
// minutes at a time as other tenants load it: sometimes with no steal
// time to show for it, sometimes with vCPUs descheduled. Raw timings
// then differ between two runs of the same code by more than any useful
// bound. So each rep also times a fixed probe that shares no code with
// the codec, and the bounded timing metrics are scaled by probeRefMS ÷
// the probe's time: they read as the time the op would take on the
// reference host at its usual speed. The raw timings are reported
// beside them with a _raw suffix.

// probeRefMS is the probe's median over thirty 30-second runs on the
// reference host (2-vCPU Intel Xeon, Go 1.24); its range there was
// 22–39 ms. It only sets the scale; comparisons do not depend on it.
const probeRefMS = 25.0

const (
	// A probe round sorts probeJobs slices of probeInts pseudo-random
	// ints, claimed from one atomic cursor by opWorkers goroutines — the
	// codec's work-queue shape, so a stalled vCPU slows the probe the
	// way it slows an op: the other worker takes more of the jobs.
	probeJobs   = 16
	probeInts   = 1 << 15 // 256 KiB per job: cache-resident and branch-heavy, like Tier-1
	probeRounds = 9
)

// probeHost returns the median probe round time in ms. It collects
// garbage first so no background GC work from earlier ops lands in it.
func probeHost() float64 {
	runtime.GC()
	src := make([]int, probeJobs*probeInts)
	x := uint32(2463534242)
	for i := range src {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		src[i] = int(x)
	}
	work := make([]int, len(src))
	rounds := make([]float64, probeRounds)
	for i := range rounds {
		copy(work, src)
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(opWorkers)
		t := time.Now()
		for w := 0; w < opWorkers; w++ {
			go func() {
				defer wg.Done()
				for j := next.Add(1) - 1; j < probeJobs; j = next.Add(1) - 1 {
					sort.Ints(work[j*probeInts : (j+1)*probeInts])
				}
			}()
		}
		wg.Wait()
		rounds[i] = msSince(t)
	}
	return median(rounds)
}
