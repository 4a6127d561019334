package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the benchmark reads: the metric
// names each mode must emit, their units and directions, and the
// end-to-end bounds compare applies.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one reported value. Reps holds the per-rep raw values the
// value is the median of, where there are several.
type metric struct {
	Name  string    `json:"name"`
	Unit  string    `json:"unit"`
	Value float64   `json:"value"`
	N     int       `json:"n"`
	Reps  []float64 `json:"reps,omitempty"`
}

type metrics []metric

func (ms *metrics) add(name, unit string, v float64, n int, reps ...float64) {
	*ms = append(*ms, metric{Name: name, Unit: unit, Value: v, N: n, Reps: reps})
}

func (ms metrics) find(name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// endToEnd computes the end-to-end metrics of a workload's reps: each is
// the median over reps, except the latency quantiles, which pool every
// rep's samples of a kind. A workload with several encode (or decode)
// kinds averages the per-kind quantiles, so a bimodal mix does not put
// the median in the gap between two kinds. The timings come twice: as
// measured (suffix _raw) and scaled to the reference host speed by each
// rep's probe (probe.go), which are the ones BENCHMARK.json bounds.
func endToEnd(in *inputs, reps []*repResult) metrics {
	var ms metrics
	perRep := func(f func(r *repResult) float64) []float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return v
	}
	ops := 0
	for _, r := range reps {
		ops += r.Ops
	}
	for _, suffix := range []string{"", "_raw"} {
		scale := func(r *repResult) float64 { return probeRefMS / r.ProbeMS }
		if suffix == "_raw" {
			scale = func(*repResult) float64 { return 1 }
		}
		setup := perRep(func(r *repResult) float64 { return r.SetupS * scale(r) })
		ms.add("setup_s"+suffix, "s", median(setup), len(reps), setup...)
		for _, dir := range []string{"enc", "dec"} {
			for _, p := range []float64{0.5, 0.9} {
				v, n := kindQuantile(in, reps, dir == "enc", p, scale)
				repQ := perRep(func(r *repResult) float64 {
					v, _ := kindQuantile(in, []*repResult{r}, dir == "enc", p, scale)
					return v
				})
				ms.add(fmt.Sprintf("%s_ms_p%.0f%s", dir, 100*p, suffix), "ms", v, n, repQ...)
			}
		}
		rate := perRep(func(r *repResult) float64 { return float64(r.Ops) / r.WallS / scale(r) })
		ms.add("ops_per_s"+suffix, "op/s", median(rate), ops, rate...)
	}
	probe := perRep(func(r *repResult) float64 { return r.ProbeMS })
	ms.add("host.probe_ms", "ms", median(probe), len(reps), probe...)
	alloc := perRep(func(r *repResult) float64 { return r.AllocMB / float64(r.Ops) })
	ms.add("alloc_mb_per_op", "MB", median(alloc), ops, alloc...)
	rss := perRep(func(r *repResult) float64 { return r.PeakRSSMB })
	ms.add("peak_rss_mb", "MB", median(rss), len(reps), rss...)
	encKinds := 0
	for k := range in.Kinds {
		if in.Kinds[k].encode() {
			encKinds++
		}
	}
	ms.add("bpp", "bit/px", in.BPP, encKinds)
	ms.add("psnr_db", "dB", in.PSNR, 1)
	return ms
}

// kindQuantile is the p-quantile of the encode (or decode) latencies in
// reps, each multiplied by its rep's scale factor, taken per kind and
// averaged over the kinds, with the number of samples it rests on.
func kindQuantile(in *inputs, reps []*repResult, encode bool, p float64, scale func(*repResult) float64) (float64, int) {
	sum, kinds, n := 0.0, 0, 0
	for k := range in.Kinds {
		if in.Kinds[k].encode() != encode {
			continue
		}
		var all []float64
		for _, r := range reps {
			s := scale(r)
			for _, ms := range r.Lat[k] {
				all = append(all, ms*s)
			}
		}
		sum += quantile(all, p)
		kinds++
		n += len(all)
	}
	return sum / float64(kinds), n
}

// perLayer computes the per-layer metrics of a traced process: medians
// over its composed ops. A layer the workload never runs (quantization
// and rate control on lossless ops) is not reported.
func perLayer(tr *traceResult) metrics {
	var ms metrics
	med := func(recs []layerRec, f func(l layerRec) (float64, bool)) (float64, bool) {
		var v []float64
		for _, l := range recs {
			if x, ok := f(l); ok {
				v = append(v, x)
			}
		}
		return median(v), len(v) > 0
	}
	timed := func(recs []layerRec, name, layer string) {
		if v, ok := med(recs, func(l layerRec) (float64, bool) { x, ok := l.MS[layer]; return x, ok }); ok {
			ms.add(name, "ms", v, len(recs))
		}
	}
	counted := func(recs []layerRec, name, unit string, f func(c map[string]float64) float64) {
		if v, ok := med(recs, func(l layerRec) (float64, bool) { return f(l.Count), len(l.Count) > 0 }); ok {
			ms.add(name, unit, v, len(recs))
		}
	}
	enc, dec := tr.Enc, tr.Dec

	timed(enc, "t1.enc_ms", "t1.enc")
	if v, ok := med(enc, func(l layerRec) (float64, bool) {
		return l.MS["t1.enc"] * 1e6 / l.Count["coded"], l.Count["coded"] > 0
	}); ok {
		ms.add("t1.ns_per_coded", "ns", v, len(enc))
	}
	counted(enc, "t1.coded_k", "k", func(c map[string]float64) float64 { return c["coded"] / 1e3 })
	counted(enc, "t1.scanned_k", "k", func(c map[string]float64) float64 { return c["scanned"] / 1e3 })
	counted(enc, "t1.coded_ratio", "ratio", func(c map[string]float64) float64 { return c["coded"] / c["scanned"] })
	counted(enc, "t1.passes", "count", func(c map[string]float64) float64 { return c["passes"] })
	counted(enc, "t1.blocks", "count", func(c map[string]float64) float64 { return c["blocks"] })
	counted(enc, "t1.enc_kb", "KiB", func(c map[string]float64) float64 { return c["t1_bytes"] / 1024 })
	timed(dec, "t1.dec_ms", "t1.dec")
	counted(dec, "t1.dec_kb", "KiB", func(c map[string]float64) float64 { return c["t1_dec_bytes"] / 1024 })

	timed(enc, "dwt.fwd_ms", "dwt.fwd")
	timed(dec, "dwt.inv_ms", "dwt.inv")
	counted(enc, "dwt.bytes_mb", "MiB", func(c map[string]float64) float64 { return c["dwt_bytes"] / (1 << 20) })
	ms.add("dwt.gains_cold_ms", "ms", tr.GainsColdMS, 1)
	timed(enc, "mct.fwd_ms", "mct.fwd")
	timed(dec, "mct.inv_ms", "mct.inv")
	timed(enc, "quant.fwd_ms", "quant.fwd")
	timed(dec, "quant.deq_ms", "deq")

	timed(enc, "rate.ms", "rate")
	if _, ok := ms.find("rate.ms"); ok {
		counted(enc, "rate.rounds", "count", func(c map[string]float64) float64 { return c["rate_rounds"] })
		counted(enc, "rate.passes_considered", "count", func(c map[string]float64) float64 { return c["passes"] })
		counted(enc, "rate.kept_bytes_ratio", "ratio", func(c map[string]float64) float64 { return c["kept_bytes"] / c["t1_bytes"] })
	}

	timed(enc, "t2.enc_ms", "t2.enc")
	timed(dec, "t2.dec_ms", "t2.dec")
	counted(enc, "t2.packets", "count", func(c map[string]float64) float64 { return c["packets"] })
	counted(enc, "t2.header_bytes", "B", func(c map[string]float64) float64 { return c["packet_header_bytes"] })
	timed(enc, "codestream.frame_ms", "frame")
	timed(dec, "codestream.parse_ms", "parse")

	timed(enc, "codec.plan_ms", "plan")
	timed(dec, "codec.zero_ms", "zero")
	ms.add("codec.enc1_ms", "ms", median(tr.Enc1), len(tr.Enc1))
	ms.add("codec.dec1_ms", "ms", median(tr.Dec1), len(tr.Dec1))
	all := append(append([]layerRec(nil), enc...), dec...)
	cov := 1.0
	for _, l := range all {
		cov = min(cov, l.coverage())
	}
	ms.add("codec.trace_coverage", "ratio", cov, len(all))
	composed, _ := med(enc, func(l layerRec) (float64, bool) { return l.WallMS, true })
	composedDec, _ := med(dec, func(l layerRec) (float64, bool) { return l.WallMS, true })
	ms.add("codec.trace_overhead", "ratio", (composed+composedDec)/(median(tr.Enc1)+median(tr.Dec1)), len(all))

	r := tr.Rep
	ops := float64(r.Ops)
	ms.add("codec.cpu_util", "ratio", r.CPUS/(r.WallS*float64(opWorkers)), r.Ops)
	ms.add("codec.goroutines_hwm", "count", float64(r.GoroutinesHWM), r.Ops)
	ms.add("codec.sched_lanes_opened", "1/op", float64(r.Sched.LanesOpened)/ops, r.Ops)
	ms.add("codec.sched_pool_claims", "1/op", float64(r.Sched.PoolClaims)/ops, r.Ops)
	ms.add("codec.sched_lane_switches", "1/op", float64(r.Sched.LaneSwitches)/ops, r.Ops)
	ms.add("codec.sched_admit_waits", "1/op", float64(r.Sched.AdmitWaits)/ops, r.Ops)
	return ms
}

// median of v (0 for none).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the closest ranks of v.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// printLines writes every metric as `workload metric value unit n`.
func printLines(w io.Writer, workload string, ms metrics) {
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %.6g %s %d\n", workload, m.Name, m.Value, m.Unit, m.N)
	}
}

// pick returns the metrics named by want, keyed by name, or an error
// naming the first one missing or reported in another unit.
func pick(ms metrics, want []specMetric) (map[string]metric, error) {
	out := map[string]metric{}
	for _, w := range want {
		m, ok := ms.find(w.Name)
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", w.Name)
		}
		if m.Unit != w.Unit {
			return nil, fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		}
		out[w.Name] = m
	}
	return out, nil
}
