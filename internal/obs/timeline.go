package obs

import "sort"

// TSpan is one exported timeline span: a named interval on a named
// track. Recorder lanes export as "worker0", "worker1", …; the Cell
// simulator's trace converts its per-PE busy spans ("spe0", "ppe0")
// into the same shape, so the Chrome exporter, the busy-window math,
// and the harness timeline renderer all operate on one type.
//
// Timestamps are int64 ticks from an arbitrary epoch; the native
// encoder records nanoseconds, the simulator converts model cycles to
// nanoseconds at export. All timeline math is unit-agnostic.
type TSpan struct {
	Track string
	Name  string
	Stage Stage // StageExtern for spans not from the encode pipeline
	Start int64
	End   int64
}

// StageExtern marks spans that did not come from the native encode
// pipeline (e.g. simulator PE busy spans); reports group them by Name.
const StageExtern Stage = 0xFE

// RowName is the report-grouping key: the pipeline stage name, or the
// span's own name for external spans.
func (s TSpan) RowName() string {
	if s.Stage == StageExtern {
		return s.Name
	}
	return s.Stage.String()
}

// BusyInWindow sums the busy time of one track within [a, b) — the
// shading primitive of the harness timeline (formerly duplicated as
// cell.Trace.BusyInWindow).
func BusyInWindow(spans []TSpan, track string, a, b int64) int64 {
	var busy int64
	for _, s := range spans {
		if s.Track != track || s.End <= a || s.Start >= b {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		busy += hi - lo
	}
	return busy
}

// Tracks returns the distinct track names in first-appearance order.
func Tracks(spans []TSpan) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range spans {
		if !seen[s.Track] {
			seen[s.Track] = true
			out = append(out, s.Track)
		}
	}
	return out
}

// Window returns the [min start, max end] extent of the spans.
func Window(spans []TSpan) (int64, int64) {
	if len(spans) == 0 {
		return 0, 0
	}
	lo, hi := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		if s.Start < lo {
			lo = s.Start
		}
		if s.End > hi {
			hi = s.End
		}
	}
	return lo, hi
}

// selfDurations returns each span's self time: its duration minus the
// time covered by spans nested inside it on the same track (spans on
// one goroutine nest properly, so children are fully contained). This
// is the profiler "self time" convention — a span opened inside another
// stage's job on the same lane is charged to the inner stage, not
// double-counted.
func selfDurations(spans []TSpan) []int64 {
	self := make([]int64, len(spans))
	byTrack := map[string][]int{}
	for i, s := range spans {
		self[i] = s.End - s.Start
		byTrack[s.Track] = append(byTrack[s.Track], i)
	}
	for _, idx := range byTrack {
		sort.Slice(idx, func(a, b int) bool {
			si, sj := spans[idx[a]], spans[idx[b]]
			if si.Start != sj.Start {
				return si.Start < sj.Start
			}
			return si.End > sj.End // parents before children
		})
		var stack []int
		for _, i := range idx {
			s := spans[i]
			for len(stack) > 0 && spans[stack[len(stack)-1]].End <= s.Start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				self[stack[len(stack)-1]] -= s.End - s.Start
			}
			stack = append(stack, i)
		}
	}
	return self
}

// unionLen returns the total length of the union of the intervals.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// trackUnion merges each track's spans into disjoint busy intervals —
// nested or overlapping spans on one lane (a span opened inside another
// stage's job) collapse to the time the lane was busy at all.
func trackUnion(spans []TSpan) map[string][][2]int64 {
	byTrack := map[string][][2]int64{}
	for _, s := range spans {
		byTrack[s.Track] = append(byTrack[s.Track], [2]int64{s.Start, s.End})
	}
	for k, iv := range byTrack {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		merged := iv[:0]
		for _, x := range iv {
			if n := len(merged); n > 0 && x[0] <= merged[n-1][1] {
				if x[1] > merged[n-1][1] {
					merged[n-1][1] = x[1]
				}
				continue
			}
			merged = append(merged, x)
		}
		byTrack[k] = merged
	}
	return byTrack
}

// serialTime returns the portion of [lo, hi) during which at most one
// lane is busy — the measured Amdahl serial term. Activity is counted
// per track (nested spans on one lane are one busy lane, not two), and
// gaps with zero active lanes count as serial: that is uninstrumented
// coordinator work (slice bookkeeping, map building) which by
// construction runs on one goroutine.
func serialTime(spans []TSpan, lo, hi int64) int64 {
	type ev struct {
		t int64
		d int // +1 open, -1 close
	}
	var evs []ev
	for _, iv := range trackUnion(spans) {
		for _, x := range iv {
			a, b := x[0], x[1]
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if a >= b {
				continue
			}
			evs = append(evs, ev{a, +1}, ev{b, -1})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].d > evs[j].d // open before close at the same instant
	})
	var serial int64
	active := 0
	prev := lo
	for _, e := range evs {
		if active <= 1 && e.t > prev {
			serial += e.t - prev
		}
		prev = e.t
		active += e.d
	}
	if prev < hi {
		serial += hi - prev
	}
	return serial
}
