package harness

import (
	"fmt"
	"slices"
	"time"

	"j2kcell/internal/baseline"
	"j2kcell/internal/cell"
	"j2kcell/internal/codec"
	"j2kcell/internal/core"
	"j2kcell/internal/dwt"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/simd"
	"j2kcell/internal/spu"
)

// losslessOpt and lossyOpt are the paper's two encoder configurations:
// JasPer defaults (reversible) and `-O mode=real -O rate=0.1`.
func losslessOpt() codec.Options { return codec.Options{Lossless: true} }
func lossyOpt() codec.Options    { return codec.Options{Lossless: false, Rate: 0.1} }

// cellSeconds converts a modeled cycle count to seconds at 3.2 GHz.
func cellSeconds(res *core.Result) float64 { return cell.Seconds(res.Cycles) }

// Table1 reports the SPE instruction latencies and the fixed-vs-float
// consequence of Section 4.
func Table1() *Table {
	t := &Table{
		Title: "Table 1 — SPE instruction latencies and the fixed-point penalty",
		Note:  "Paper: mpyh 7, mpyu 7, a 2, fm 6 cycles; hence JasPer's fixed-point 9/7 loses to float on the SPE.",
		Cols:  []string{"instruction", "latency (cycles)", "notes"},
	}
	t.AddRow("mpyh", fmt.Sprint(cell.LatMpyh), "two-byte integer multiply high")
	t.AddRow("mpyu", fmt.Sprint(cell.LatMpyu), "two-byte integer multiply unsigned")
	t.AddRow("a", fmt.Sprint(cell.LatA), "add word")
	t.AddRow("fm", fmt.Sprint(cell.LatFm), "single-precision float multiply")
	t.AddRow("int32 multiply (emulated)", fmt.Sprint(cell.FixedMul32Latency),
		fmt.Sprintf("%d instructions: 2xmpyh + mpyu + 2 adds (latency from the spu pipeline model)", cell.FixedMul32Instrs))
	t.AddRow("int32 multiply throughput", f2(spu.CyclesPer(spu.Mul32Kernel, 64)),
		"even-pipe cycles per vector multiply, dual-issue scheduled")
	t.AddRow("float multiply throughput", f2(spu.CyclesPer(spu.FloatMulKernel, 64)),
		"one fm per cycle when independent")
	schedRatio := spu.CyclesPer(spu.Lift97FixedKernel, 128) / spu.CyclesPer(spu.Lift97FloatKernel, 128)
	t.AddRow("9/7 lifting, fixed vs float (scheduled)", f2(schedRatio),
		"pipeline-model cycles/vector ratio of the lifting inner loop")
	t.AddRow("9/7 kernel, fixed vs float (cost model)", f2(cell.SPECosts.DWT97Fix/cell.SPECosts.DWT97),
		"calibrated cycles/sample ratio used by the encoder model")
	fNs, xNs := hostLiftNs()
	ratio := make([]float64, hostRepeats)
	for i := range ratio {
		ratio[i] = xNs[i] / fNs[i]
	}
	kern := simd.Kernel()
	t.AddRow(fmt.Sprintf("host 9/7 lift row, float (simd:%s)", kern),
		medianSpread(fNs, " ns/sample"), "measured on this machine via dwt.Lift97")
	t.AddRow(fmt.Sprintf("host 9/7 lift row, Q13 fixed (simd:%s)", kern),
		medianSpread(xNs, " ns/sample"), "measured on this machine via dwt.Lift97Fixed")
	t.AddRow("host 9/7 lifting, fixed vs float", medianSpread(ratio, ""),
		"median of per-repeat ratios; this machine's counterpart of the SPE ratio above")
	return t
}

// hostRepeats is how many alternating float/fixed timings the host rows
// of Table 1 take. Each row prints the median with its interquartile
// range, so one timing disturbed by the rest of the machine cannot move
// it, and the spread says how far the row can be trusted.
const hostRepeats = 15

// hostCalls is how many lifting-row calls one timing spans: a few
// milliseconds for the 4096-sample row on an amd64 core.
const hostCalls = 4096

// medianSpread formats the median of xs with its interquartile range
// and the number of repeats, e.g. "0.21 ns/sample (IQR 0.02, 15 runs)".
func medianSpread(xs []float64, unit string) string {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return fmt.Sprintf("%s%s (IQR %s, %d runs)", f2(q(0.5)), unit, f2(q(0.75)-q(0.25)), len(s))
}

// hostLiftNs wall-clocks one 9/7 lifting row step on the host in both
// representations (float32 and JasPer's Q13 fixed point), through
// the build's simd kernel set, and returns the ns/sample of each
// of hostRepeats repeats. The two representations alternate, and swap
// which goes first every repeat, so drift in the machine's speed lands
// on both. It is the x86 counterpart of the paper's Section 4
// measurement: on the SPE the emulated 32-bit integer multiply makes
// fixed point lose. SSE2 has no packed 32-bit multiply either, so its
// Q13 step emulates one from PMULUDQ halves, and the ratio shows how
// that penalty reads on the host.
func hostLiftNs() (floatNs, fixedNs []float64) {
	const n = 4096
	df := make([]float32, n)
	ef0 := make([]float32, n)
	ef1 := make([]float32, n)
	dx := make([]int32, n)
	ex0 := make([]int32, n)
	ex1 := make([]int32, n)
	for i := 0; i < n; i++ {
		v := float32(i%255) - 127
		df[i], ef0[i], ef1[i] = v, v+1, v-1
		dx[i], ex0[i], ex1[i] = dwt.ToFixed(int32(i%255)-127), int32(i%511), -int32(i%257)
	}
	liftF := func() { dwt.Lift97(df, ef0, ef1, float32(dwt.Alpha97)) }
	liftX := func() { dwt.Lift97Fixed(dx, ex0, ex1, -12994) }
	nsPerSample := func(lift func()) float64 {
		start := time.Now()
		for range hostCalls {
			lift()
		}
		return float64(time.Since(start).Nanoseconds()) / (hostCalls * n)
	}
	liftF() // warm both rows' caches before the first timing
	liftX()
	floatNs = make([]float64, hostRepeats)
	fixedNs = make([]float64, hostRepeats)
	for r := range hostRepeats {
		if r%2 == 0 {
			floatNs[r] = nsPerSample(liftF)
			fixedNs[r] = nsPerSample(liftX)
		} else {
			fixedNs[r] = nsPerSample(liftX)
			floatNs[r] = nsPerSample(liftF)
		}
	}
	return floatNs, fixedNs
}

// sweepConfig describes one bar of Figures 4/5.
type sweepConfig struct {
	label string
	cfg   core.Config
}

func scalingConfigs(opt codec.Options) []sweepConfig {
	mk := func(label string, nspe, chips, nppe int, ppet1 bool) sweepConfig {
		cfg := core.DefaultConfig(nspe, opt)
		cfg.Cell.Chips = chips
		cfg.Cell.PPEThreads = nppe
		cfg.PPET1 = ppet1
		return sweepConfig{label, cfg}
	}
	return []sweepConfig{
		mk("1 PPE only", 0, 1, 1, true),
		mk("1 SPE", 1, 1, 1, false),
		mk("2 SPE", 2, 1, 1, false),
		mk("4 SPE", 4, 1, 1, false),
		mk("8 SPE", 8, 1, 1, false),
		mk("8 SPE + 1 PPE", 8, 1, 1, true),
		mk("16 SPE", 16, 2, 1, false),
		mk("16 SPE + 2 PPE", 16, 2, 2, true),
	}
}

// scalingFigure runs the Figure 4/5 sweep for one coding mode.
func scalingFigure(img *imgmodel.Image, opt codec.Options, title, paperNote string) *Table {
	t := &Table{
		Title: title,
		Note:  paperNote,
		Cols:  []string{"config", "time (s)", "speedup vs 1 SPE", "tier1 (s)", "dwt (s)", "rate ctl share"},
	}
	var base float64
	for _, sc := range scalingConfigs(opt) {
		res, err := core.Encode(img, sc.cfg)
		must(err)
		total := cellSeconds(res)
		if sc.label == "1 SPE" {
			base = total
		}
		sp := "-"
		if base > 0 {
			sp = f2(base / total)
		}
		rc := float64(res.StageCycles("ratecontrol")) / float64(res.Cycles)
		t.AddRow(sc.label, f3(total), sp,
			f3(cell.Seconds(res.StageCycles("tier1"))),
			f3(cell.Seconds(res.StageCycles("dwt"))),
			pct(rc))
	}
	return t
}

// Fig4 is the lossless scaling figure.
func Fig4(p Params) *Table {
	return scalingFigure(p.DialImage(), losslessOpt(),
		fmt.Sprintf("Figure 4 — lossless encoding time and speedup (%dx%d dial)", p.W, p.H),
		"Paper: 6.6x at 8 SPE vs 1 SPE; near-linear Tier-1 scaling; extra speedup from +PPE threads; scales to 16 SPE.")
}

// Fig5 is the lossy scaling figure.
func Fig5(p Params) *Table {
	return scalingFigure(p.DialImage(), lossyOpt(),
		fmt.Sprintf("Figure 5 — lossy (rate 0.1) encoding time and speedup (%dx%d dial)", p.W, p.H),
		"Paper: 3.1x at 8 SPE vs 1 SPE; flattens — sequential rate control is ~60% of total at 16 SPE + 2 PPE.")
}

// mutaComparison computes the four bars shared by Figures 6-8.
type mutaBars struct {
	muta0, muta1   baseline.MutaResult
	ours1, ours2   *core.Result
	ours1s, ours2s float64
}

func runMutaComparison(img *imgmodel.Image) mutaBars {
	var b mutaBars
	_, m8, err := baseline.EncodeMuta(img, 8, baseline.MutaClockHz)
	must(err)
	// Muta0: two frames in flight on two chips; per-frame latency is a
	// single chip's, reported time is halved throughput-wise (the paper
	// notes the per-frame time can be up to 2x the reported number).
	b.muta0 = m8
	b.muta0.DWT /= 2
	b.muta0.EBCOT /= 2
	b.muta0.Other /= 2
	_, b.muta1, err = baseline.EncodeMuta(img, 16, baseline.MutaClockHz)
	must(err)
	cfg1 := core.DefaultConfig(8, losslessOpt())
	cfg1.PPET1 = true // the paper's design codes Tier-1 on PPE + SPEs
	b.ours1, err = core.Encode(img, cfg1)
	must(err)
	cfg2 := core.DefaultConfig(16, losslessOpt())
	cfg2.Cell = cell.QS20Config(16, 2)
	cfg2.PPET1 = true
	b.ours2, err = core.Encode(img, cfg2)
	must(err)
	b.ours1s = cellSeconds(b.ours1)
	b.ours2s = cellSeconds(b.ours2)
	return b
}

// Fig6 compares overall per-frame encoding time with Muta0/Muta1.
func Fig6(p Params) *Table {
	img := p.FrameImage()
	b := runMutaComparison(img)
	t := &Table{
		Title: fmt.Sprintf("Figure 6 — overall comparison with Muta et al. (%dx%d lossless frame)", p.FrameW, p.FrameH),
		Note:  "Paper: our 1-chip encoder beats their 2-chip encoder; numbers are speedup relative to Muta0.",
		Cols:  []string{"system", "time (s)", "speedup vs Muta0"},
	}
	ref := b.muta0.Total()
	t.AddRow("Muta0 (2 chips, 2 frames in flight)", f3(ref), f2(1))
	t.AddRow("Muta1 (2 chips, 1 frame)", f3(b.muta1.Total()), f2(ref/b.muta1.Total()))
	t.AddRow("Ours (1 chip: 8 SPE + 1 PPE)", f3(b.ours1s), f2(ref/b.ours1s))
	t.AddRow("Ours (2 chips: 16 SPE + 2 PPE)", f3(b.ours2s), f2(ref/b.ours2s))
	return t
}

// Fig7 compares the EBCOT (Tier-1 + Tier-2) portion.
func Fig7(p Params) *Table {
	img := p.FrameImage()
	b := runMutaComparison(img)
	ours1 := cell.Seconds(b.ours1.StageCycles("tier1") + b.ours1.StageCycles("tier2+io"))
	ours2 := cell.Seconds(b.ours2.StageCycles("tier1") + b.ours2.StageCycles("tier2+io"))
	t := &Table{
		Title: fmt.Sprintf("Figure 7 — EBCOT (Tier-1 + Tier-2) comparison with Muta et al. (%dx%d)", p.FrameW, p.FrameH),
		Note:  "Paper: higher EBCOT scalability from 64x64 blocks and minimized PPE/SPE interaction.",
		Cols:  []string{"system", "EBCOT time (s)", "speedup vs Muta0"},
	}
	ref := b.muta0.EBCOT
	t.AddRow("Muta0", f3(ref), f2(1))
	t.AddRow("Muta1", f3(b.muta1.EBCOT), f2(ref/b.muta1.EBCOT))
	t.AddRow("Ours (1 chip)", f3(ours1), f2(ref/ours1))
	t.AddRow("Ours (2 chips)", f3(ours2), f2(ref/ours2))
	return t
}

// Fig8 compares the DWT portion.
func Fig8(p Params) *Table {
	img := p.FrameImage()
	b := runMutaComparison(img)
	ours1 := cell.Seconds(b.ours1.StageCycles("dwt"))
	ours2 := cell.Seconds(b.ours2.StageCycles("dwt"))
	t := &Table{
		Title: fmt.Sprintf("Figure 8 — DWT comparison with Muta et al. (%dx%d)", p.FrameW, p.FrameH),
		Note:  "Paper: lifting + decomposition scheme + loop interleaving vs convolution on overlapping tiles.",
		Cols:  []string{"system", "DWT time (s)", "speedup vs Muta0"},
	}
	ref := b.muta0.DWT
	t.AddRow("Muta0", f3(ref), f2(1))
	t.AddRow("Muta1", f3(b.muta1.DWT), f2(ref/b.muta1.DWT))
	t.AddRow("Ours (1 chip)", f3(ours1), f2(ref/ours1))
	t.AddRow("Ours (2 chips)", f3(ours2), f2(ref/ours2))
	return t
}

// Fig9 compares the Cell (8 SPE + 1 PPE) against the Pentium IV model.
func Fig9(p Params) *Table {
	img := p.DialImage()
	t := &Table{
		Title: fmt.Sprintf("Figure 9 — Cell/B.E. vs Pentium IV 3.2 GHz (%dx%d dial)", p.W, p.H),
		Note:  "Paper: overall 3.2x (lossless) / 2.7x (lossy); DWT 9.1x / 15x.",
		Cols:  []string{"metric", "Pentium IV (s)", "Cell 8 SPE (s)", "speedup", "paper"},
	}
	for _, mode := range []struct {
		label string
		opt   codec.Options
		ovP   string
		dwtP  string
	}{
		{"lossless", losslessOpt(), "3.2", "9.1"},
		{"lossy rate 0.1", lossyOpt(), "2.7", "15"},
	} {
		_, p4, err := baseline.EncodePentium(img, mode.opt)
		must(err)
		res, err := core.Encode(img, core.DefaultConfig(8, mode.opt))
		must(err)
		total := cellSeconds(res)
		dwt := cell.Seconds(res.StageCycles("dwt"))
		t.AddRow("overall "+mode.label, f3(p4.Total()), f3(total), f2(p4.Total()/total), mode.ovP)
		t.AddRow("DWT "+mode.label, f3(p4.DWT), f3(dwt), f2(p4.DWT/dwt), mode.dwtP)
	}
	return t
}
