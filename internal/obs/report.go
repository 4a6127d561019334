package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// StageStat is one row of the stage-breakdown report — the mirror of
// the paper's Table 2 (execution time per stage) with the concurrency
// columns the Cell version derived from per-SPE timing.
type StageStat struct {
	Name  string
	Wall  time.Duration // union of the stage's span intervals
	Busy  time.Duration // sum of span durations across lanes
	Par   float64       // Busy/Wall: average parallelism while active
	Spans int
}

// Report is the Amdahl view of one recorded encode: per-stage wall and
// busy time, the measured serial fraction, and the speedup bounds it
// implies. See DESIGN.md §6 for the exact semantics.
type Report struct {
	Total       time.Duration // whole-encode wall time
	Busy        time.Duration // total busy time across lanes (non-envelope)
	Serial      time.Duration // time with ≤1 lane active
	SerialFrac  float64       // Serial / Total
	Workers     int
	AchievedPar float64 // Busy / Total: effective parallelism
	AmdahlBound float64 // 1/(s + (1-s)/Workers)
	AmdahlLimit float64 // 1/s: bound at infinite workers
	Stages      []StageStat
}

// BuildReport derives the stage breakdown and Amdahl accounting from a
// span set. Envelope spans (whole-encode, whole-tile) define the total
// window but are excluded from busy and concurrency sums — they enclose
// the real work. workers is the configured pool width (used only for
// the finite Amdahl bound; pass 0 to use the number of tracks).
func BuildReport(spans []TSpan, workers int) *Report {
	r := &Report{Workers: workers}
	if len(spans) == 0 {
		return r
	}
	var work []TSpan // non-envelope spans
	for _, s := range spans {
		if !s.Stage.envelope() {
			work = append(work, s)
		}
	}
	lo, hi := Window(spans)
	r.Total = time.Duration(hi - lo)
	if r.Workers <= 0 {
		r.Workers = len(Tracks(work))
		if r.Workers == 0 {
			r.Workers = 1
		}
	}

	// Per-stage rows, in first-span order. Busy sums self time (nested
	// same-lane spans charge their enclosing span only for the
	// uncovered remainder), so r.Busy/Total never exceeds the lane
	// count.
	self := selfDurations(work)
	byRow := map[string][]int{}
	var order []string
	for i, s := range work {
		k := s.RowName()
		if _, ok := byRow[k]; !ok {
			order = append(order, k)
		}
		byRow[k] = append(byRow[k], i)
	}
	for _, k := range order {
		idx := byRow[k]
		var busy int64
		iv := make([][2]int64, 0, len(idx))
		for _, i := range idx {
			busy += self[i]
			iv = append(iv, [2]int64{work[i].Start, work[i].End})
		}
		wall := unionLen(iv)
		st := StageStat{
			Name: k, Wall: time.Duration(wall), Busy: time.Duration(busy),
			Spans: len(idx),
		}
		if wall > 0 {
			st.Par = float64(busy) / float64(wall)
		}
		r.Stages = append(r.Stages, st)
		r.Busy += st.Busy
	}

	r.Serial = time.Duration(serialTime(work, lo, hi))
	if r.Total > 0 {
		r.SerialFrac = float64(r.Serial) / float64(r.Total)
		r.AchievedPar = float64(r.Busy) / float64(r.Total)
	}
	s := r.SerialFrac
	if s < 1e-9 {
		s = 1e-9
	}
	r.AmdahlLimit = 1 / s
	r.AmdahlBound = 1 / (s + (1-s)/float64(r.Workers))
	return r
}

// Table renders the report as the human-readable stage-breakdown table
// behind `j2kenc --report`.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %7s %7s %7s\n",
		"stage", "wall", "busy", "par", "%wall", "spans")
	for _, st := range r.Stages {
		frac := 0.0
		if r.Total > 0 {
			frac = 100 * float64(st.Wall) / float64(r.Total)
		}
		fmt.Fprintf(&b, "%-8s %12v %12v %6.2fx %6.1f%% %7d\n",
			st.Name, st.Wall.Round(time.Microsecond), st.Busy.Round(time.Microsecond),
			st.Par, frac, st.Spans)
	}
	fmt.Fprintf(&b, "total %v  busy %v  achieved parallelism %.2fx on %d workers\n",
		r.Total.Round(time.Microsecond), r.Busy.Round(time.Microsecond),
		r.AchievedPar, r.Workers)
	fmt.Fprintf(&b, "serial %v (%.1f%%)  Amdahl bound: %.2fx at %d workers, %.1fx at ∞\n",
		r.Serial.Round(time.Microsecond), 100*r.SerialFrac,
		r.AmdahlBound, r.Workers, r.AmdahlLimit)
	return b.String()
}

// sloTable renders the per-class operation latency quantile table
// shared by Registry.SLOTable and Recorder.SLOTable. get returns the
// class's histogram and completed-op count.
func sloTable(get func(OpClass) (*Histogram, int64)) string {
	var b strings.Builder
	rows := 0
	for c := OpClass(0); c < NumOpClasses; c++ {
		h, n := get(c)
		if n == 0 && h.Count() == 0 {
			continue
		}
		if rows == 0 {
			fmt.Fprintf(&b, "%-28s %6s %10s %10s %10s %10s\n",
				"class", "ops", "p50", "p95", "p99", "mean")
		}
		rows++
		cnt := h.Count()
		mean := time.Duration(0)
		if cnt > 0 {
			mean = time.Duration(h.Sum() / cnt)
		}
		fmt.Fprintf(&b, "%-28s %6d %10v %10v %10v %10v\n",
			c, n,
			time.Duration(h.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.95)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)).Round(time.Microsecond),
			mean.Round(time.Microsecond))
	}
	if rows == 0 {
		return "(no operations recorded)\n"
	}
	b.WriteString("quantiles are power-of-two bucket upper bounds\n")
	return b.String()
}

// SLOTable renders the registry's per-class operation latency
// quantiles — the process-lifetime SLO view.
func (g *Registry) SLOTable() string {
	return sloTable(func(c OpClass) (*Histogram, int64) {
		return g.SLO(c), g.Ops(c)
	})
}

// SLOTable renders this recorder's per-class operation latency
// quantiles (an operation recorder normally holds one class).
func (r *Recorder) SLOTable() string {
	if r == nil {
		return "(observability disabled)\n"
	}
	return sloTable(func(c OpClass) (*Histogram, int64) {
		return r.SLOHist(c), r.OpCount(c)
	})
}

// MetricsTable renders the recorder's counters, per-lane claim counts,
// and per-stage latency summaries as aligned key/value text — the
// `-metrics` output and the human-readable face of the expvar snapshot.
func (r *Recorder) MetricsTable() string {
	if r == nil {
		return "(observability disabled)\n"
	}
	var b strings.Builder
	ctr := r.Counters()
	keys := make([]string, 0, len(ctr))
	for k := range ctr {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("counters:\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-20s %d\n", k, ctr[k])
	}
	if claims := r.LaneClaims(); len(claims) > 0 {
		b.WriteString("work-queue claims per lane:\n")
		for i, c := range claims {
			if c > 0 {
				fmt.Fprintf(&b, "  worker%-3d %d\n", i, c)
			}
		}
	}
	b.WriteString("stage latency:\n")
	for s := Stage(0); s < numStages; s++ {
		h := r.Hist(s)
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-8s %s\n", s, h)
	}
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&b, "spans dropped: %d\n", d)
	}
	return b.String()
}
