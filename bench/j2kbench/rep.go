package main

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"j2kcell"
)

// repConfig shapes one rep's closed loop.
type repConfig struct {
	clients int
	ops     int           // timed ops to run; 0 runs for dur instead
	dur     time.Duration // timed loop length when ops is 0
	sample  bool          // sample the goroutine high-water mark (traced process only)
	corrupt func([]byte)  // test hook: damages each encode output before it is checked
}

// Tally counts checked ops and keeps the first errors. It is exported
// so gob carries its fields where results embed it.
type Tally struct {
	Attempted, Failed int
	Errs              []string
}

// maxErrs bounds the error messages a Tally keeps.
const maxErrs = 8

func (t *Tally) note(err error) {
	t.Attempted++
	if err != nil {
		t.Failed++
		if len(t.Errs) < maxErrs {
			t.Errs = append(t.Errs, err.Error())
		}
	}
}

func (t *Tally) add(o Tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, e := range o.Errs {
		if len(t.Errs) < maxErrs {
			t.Errs = append(t.Errs, e)
		}
	}
}

// repResult is what one rep process measured.
type repResult struct {
	Tally
	SetupS        float64     // inputs ready → one op of every kind done serially
	Lat           [][]float64 // ms of each timed op, by kind
	Ops           int         // timed ops completed
	WallS         float64     // timed loop wall time
	CPUS          float64     // user+system CPU seconds of the timed loop
	AllocMB       float64     // MiB allocated during the timed loop
	PeakRSSMB     float64     // resident-set high-water mark of the process, MiB
	ProbeMS       float64     // mean of the host probe before setup and after the loop
	Sched         j2kcell.SchedStats
	GoroutinesHWM int
}

// runRep runs one rep: the host probe, the cold setup (one op of each
// kind, serially, on a fresh scheduler), the closed loop, each client
// cycling through the kinds from its own starting offset so different
// kinds overlap, and the probe again.
func runRep(in *inputs, cfg repConfig) *repResult {
	r := &repResult{Lat: make([][]float64, len(in.Kinds))}
	var mu sync.Mutex
	do := func(ctx context.Context, k int) float64 {
		t := time.Now()
		data, img, err := in.Kinds[k].run(ctx, opWorkers)
		ms := msSince(t)
		if err == nil {
			if cfg.corrupt != nil && data != nil {
				cfg.corrupt(data)
			}
			err = in.Kinds[k].check(data, img)
		}
		mu.Lock()
		r.note(err)
		mu.Unlock()
		return ms
	}

	probe := probeHost()
	t0 := time.Now()
	sched := j2kcell.NewScheduler(j2kcell.SchedConfig{Workers: opWorkers})
	ctx := j2kcell.WithScheduler(context.Background(), sched)
	for k := range in.Kinds {
		do(ctx, k)
	}
	r.SetupS = time.Since(t0).Seconds()

	var hwm atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if cfg.sample {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				if n := int64(runtime.NumGoroutine()); n > hwm.Load() {
					hwm.Store(n)
				}
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0, cpu0 := sched.Stats(), cpuSeconds()
	start := time.Now()
	deadline := start.Add(cfg.dur)
	var claimed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(cfg.clients)
	for c := 0; c < cfg.clients; c++ {
		go func(k int) {
			defer wg.Done()
			for ; ; k = (k + 1) % len(in.Kinds) {
				if cfg.ops > 0 {
					if claimed.Add(1) > int64(cfg.ops) {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				ms := do(ctx, k)
				mu.Lock()
				r.Lat[k] = append(r.Lat[k], ms)
				r.Ops++
				mu.Unlock()
			}
		}(c * len(in.Kinds) / cfg.clients)
	}
	wg.Wait()
	r.WallS = time.Since(start).Seconds()
	r.CPUS = cpuSeconds() - cpu0
	s1 := sched.Stats()
	runtime.ReadMemStats(&m1)
	close(stop)
	sampler.Wait()

	r.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	r.GoroutinesHWM = int(hwm.Load())
	r.Sched = j2kcell.SchedStats{
		LanesOpened:  s1.LanesOpened - s0.LanesOpened,
		PoolClaims:   s1.PoolClaims - s0.PoolClaims,
		LaneSwitches: s1.LaneSwitches - s0.LaneSwitches,
		AdmitWaits:   s1.AdmitWaits - s0.AdmitWaits,
	}
	// Read the high-water mark before the probe's buffers can raise it.
	r.PeakRSSMB = peakRSSMB()
	r.ProbeMS = (probe + probeHost()) / 2
	return r
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), in
// MiB, or 0 where /proc does not report it. getrusage's ru_maxrss would
// not do: after exec it still holds the parent's high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
