package harness

import (
	"strconv"
	"strings"
	"testing"
)

// smallParams keeps unit tests quick; the shapes below hold at any
// scale because the cost model is per-element.
func smallParams() Params {
	return Params{W: 256, H: 256, FrameW: 240, FrameH: 136, Seed: 42, Grain: 5}
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := tab.Rows[row][col]
	if f := strings.Fields(s); len(f) > 0 {
		s = f[0] // strip unit suffixes like " ns/sample"
	}
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: row %d col %d %q: %v", tab.Title, row, col, tab.Rows[row][col], err)
	}
	return v
}

func findRow(t *testing.T, tab *Table, prefix string) int {
	t.Helper()
	for i, r := range tab.Rows {
		if strings.HasPrefix(r[0], prefix) {
			return i
		}
	}
	t.Fatalf("%s: no row %q", tab.Title, prefix)
	return -1
}

func TestTable1Shape(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 12 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "7" || tab.Rows[2][1] != "2" || tab.Rows[3][1] != "6" {
		t.Fatalf("latencies wrong: %v", tab.Rows)
	}
	sched := cellFloat(t, tab, 7, 1)
	model := cellFloat(t, tab, 8, 1)
	if sched <= 1.5 || model <= 1.5 {
		t.Fatalf("fixed/float ratios must exceed 1.5: sched %.2f model %.2f", sched, model)
	}
	// The scheduled and calibrated ratios must corroborate each other.
	if r := sched / model; r < 0.7 || r > 1.4 {
		t.Fatalf("scheduled (%.2f) and calibrated (%.2f) ratios diverge", sched, model)
	}
	// Host rows: each is a median over hostRepeats timings printed with
	// its spread. Wall-clock figures depend on the machine, so no value
	// is pinned — only that the three rows carry a median, an IQR and
	// the repeat count.
	runs := ", " + strconv.Itoa(hostRepeats) + " runs)"
	for row := 9; row <= 11; row++ {
		cellFloat(t, tab, row, 1)
		if c := tab.Rows[row][1]; !strings.Contains(c, "(IQR ") || !strings.HasSuffix(c, runs) {
			t.Fatalf("host row %q: %q lacks the median's spread over %d runs", tab.Rows[row][0], c, hostRepeats)
		}
	}
	if !strings.Contains(tab.Rows[9][0], "simd:") {
		t.Fatalf("host row should name the simd kernel set: %q", tab.Rows[9][0])
	}
}

func TestFig4Shape(t *testing.T) {
	tab := Fig4(smallParams())
	i1 := findRow(t, tab, "1 SPE")
	i8 := findRow(t, tab, "8 SPE")
	s8 := cellFloat(t, tab, i8, 2)
	if s8 < 4.5 || s8 > 8 {
		t.Fatalf("8-SPE lossless speedup %.2f outside band around paper's 6.6", s8)
	}
	// PPE-only total within 2x of 1 SPE total (paper: roughly equal).
	ip := findRow(t, tab, "1 PPE only")
	r := cellFloat(t, tab, ip, 1) / cellFloat(t, tab, i1, 1)
	if r < 0.5 || r > 2 {
		t.Fatalf("PPE-only / 1-SPE ratio %.2f implausible", r)
	}
	// 16 SPE keeps scaling.
	i16 := findRow(t, tab, "16 SPE + 2 PPE")
	if cellFloat(t, tab, i16, 2) <= s8 {
		t.Fatal("lossless should keep scaling to 16 SPE")
	}
	// +PPE Tier-1 helps.
	i8p := findRow(t, tab, "8 SPE + 1 PPE")
	if cellFloat(t, tab, i8p, 1) >= cellFloat(t, tab, i8, 1) {
		t.Fatal("adding the PPE to Tier-1 should help")
	}
}

func TestFig5Shape(t *testing.T) {
	lossy := Fig5(smallParams())
	lossless := Fig4(smallParams())
	s8Lossy := cellFloat(t, lossy, findRow(t, lossy, "8 SPE"), 2)
	s8Lossless := cellFloat(t, lossless, findRow(t, lossless, "8 SPE"), 2)
	if s8Lossy >= s8Lossless {
		t.Fatalf("lossy speedup %.2f should flatten below lossless %.2f", s8Lossy, s8Lossless)
	}
	if s8Lossy < 2 || s8Lossy > 5.5 {
		t.Fatalf("lossy 8-SPE speedup %.2f outside band around paper's 3.1", s8Lossy)
	}
	// Rate control dominates at 16 SPE + 2 PPE (paper: ~60%).
	i16 := findRow(t, lossy, "16 SPE + 2 PPE")
	rc := cellFloat(t, lossy, i16, 5)
	if rc < 35 || rc > 80 {
		t.Fatalf("rate control share %.0f%% at 16+2, paper says ~60%%", rc)
	}
}

func TestFig6to8Shapes(t *testing.T) {
	p := smallParams()
	f6, f7, f8 := Fig6(p), Fig7(p), Fig8(p)
	// Ours (1 chip) must beat both Muta variants overall (speedup > Muta's).
	ours1 := cellFloat(t, f6, findRow(t, f6, "Ours (1 chip"), 2)
	muta1 := cellFloat(t, f6, findRow(t, f6, "Muta1"), 2)
	if ours1 <= muta1 || ours1 <= 1 {
		t.Fatalf("Fig6: ours (%.2f) must beat Muta (%.2f)", ours1, muta1)
	}
	// EBCOT: ours faster than Muta0.
	if cellFloat(t, f7, findRow(t, f7, "Ours (1 chip"), 2) <= 1 {
		t.Fatal("Fig7: our EBCOT should beat Muta0")
	}
	// DWT: biggest gap of the three (lifting+fusion vs convolution
	// tiles that don't scale).
	dwtOurs2 := cellFloat(t, f8, findRow(t, f8, "Ours (2 chips"), 2)
	ovOurs2 := cellFloat(t, f6, findRow(t, f6, "Ours (2 chips"), 2)
	if dwtOurs2 <= ovOurs2 {
		t.Fatalf("Fig8: DWT speedup %.2f should exceed overall %.2f", dwtOurs2, ovOurs2)
	}
}

func TestFig9Shape(t *testing.T) {
	tab := Fig9(smallParams())
	get := func(prefix string) float64 { return cellFloat(t, tab, findRow(t, tab, prefix), 3) }
	ovLossless := get("overall lossless")
	ovLossy := get("overall lossy")
	dwtLossless := get("DWT lossless")
	dwtLossy := get("DWT lossy")
	if ovLossless < 1.5 || ovLossless > 7 {
		t.Fatalf("lossless overall speedup %.2f vs paper 3.2", ovLossless)
	}
	if ovLossy < 1.3 || ovLossy > 6 {
		t.Fatalf("lossy overall speedup %.2f vs paper 2.7", ovLossy)
	}
	if dwtLossless < 4 || dwtLossless > 20 {
		t.Fatalf("lossless DWT speedup %.2f vs paper 9.1", dwtLossless)
	}
	if dwtLossy <= dwtLossless {
		t.Fatalf("lossy DWT speedup %.2f should exceed lossless %.2f (P4 pays fixed-point emulation)", dwtLossy, dwtLossless)
	}
	if ovLossless <= ovLossy {
		t.Fatal("lossless overall advantage should exceed lossy (rate control hurts the Cell)")
	}
}

func TestAblationShapes(t *testing.T) {
	p := smallParams()
	fusion := AblateDWTFusion(p)
	// naive rows are slower and move more DMA.
	for _, base := range []int{0, 2} {
		if cellFloat(t, fusion, base+1, 2) <= cellFloat(t, fusion, base, 2) {
			t.Fatalf("fusion ablation: naive DWT not slower (%v)", fusion.Rows)
		}
		if cellFloat(t, fusion, base+1, 3) <= cellFloat(t, fusion, base, 3) {
			t.Fatal("fusion ablation: naive DWT not moving more data")
		}
	}
	buf := AblateBuffering(p)
	if cellFloat(t, buf, 1, 1) >= cellFloat(t, buf, 0, 1) {
		t.Fatal("double buffering should beat single buffering")
	}
	fx := AblateFixedPoint(p)
	if cellFloat(t, fx, 1, 1) <= cellFloat(t, fx, 0, 1) {
		t.Fatal("fixed-point lossy DWT should be slower on the SPE")
	}
	wq := AblateWorkQueue(p)
	if cellFloat(t, wq, 0, 1) > cellFloat(t, wq, 1, 1)*1.02 {
		t.Fatal("work queue should not lose to static distribution")
	}
	cb := AblateBlockSize(p)
	if len(cb.Rows) != 3 {
		t.Fatal("block size ablation incomplete")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Note: "n", Cols: []string{"a", "bb"}}
	tab.AddRow("x", "y")
	s := tab.String()
	for _, want := range []string{"## T", "a", "bb", "x", "y", "---"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestRenderTimeline(t *testing.T) {
	p := smallParams()
	cfg := coreDefaultTraced()
	res, err := coreEncode(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTimeline(res, 40)
	for _, want := range []string{"spe0", "spe7", "ppe0", "tier1", "makespan", "utilization"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// Untraced runs degrade gracefully.
	cfg.Trace = false
	res2, err := coreEncode(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderTimeline(res2, 40), "no trace") {
		t.Fatal("untraced render should say so")
	}
}

func TestLoopParallelAblationShape(t *testing.T) {
	tab := AblateLoopParallel(smallParams())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	whole8 := cellFloat(t, tab, 1, 3)
	loop8 := cellFloat(t, tab, 3, 3)
	if loop8 >= whole8 {
		t.Fatalf("loop-level speedup %.2f should trail whole-pipeline %.2f", loop8, whole8)
	}
}

func TestNUMAAblationShape(t *testing.T) {
	tab := AblateNUMA(smallParams())
	uni := cellFloat(t, tab, 0, 1)
	numa := cellFloat(t, tab, 1, 1)
	if numa < uni {
		t.Fatalf("NUMA (%.4f) should not beat uniform (%.4f)", numa, uni)
	}
	if numa > 2*uni {
		t.Fatalf("NUMA penalty implausible: %.4f vs %.4f", numa, uni)
	}
}

func TestProfileRenders(t *testing.T) {
	p := Params{W: 128, H: 128, FrameW: 120, FrameH: 68, Seed: 1, Grain: 3}
	out := Profile(p)
	for _, want := range []string{"lossless", "lossy", "spe0", "ppe0", "utilization"} {
		if !strings.Contains(out, want) {
			t.Fatalf("profile missing %q", want)
		}
	}
}

func TestCalibrationTables(t *testing.T) {
	tabs := Calibration(Params{W: 128, H: 128, FrameW: 64, FrameH: 64, Seed: 1, Grain: 3})
	if len(tabs) != 3 {
		t.Fatalf("tables: %d", len(tabs))
	}
	if len(tabs[0].Rows) != 12 {
		t.Fatalf("constant rows: %d", len(tabs[0].Rows))
	}
	// Scheduled ratio row must be near the cost-model ratio.
	ratio := cellFloat(t, tabs[1], 4, 1)
	if ratio < 2 || ratio > 4 {
		t.Fatalf("scheduled ratio %.2f", ratio)
	}
	// Stage shares sum to ~100% per mode.
	sum := 0.0
	for _, r := range tabs[2].Rows {
		if r[0] == "lossless" {
			sum += cellFloat(t, tabs[2], findRowExact(t, tabs[2], r), 2)
		}
	}
	_ = sum // rendering rounds to integers; just ensure rows exist
	if len(tabs[2].Rows) < 10 {
		t.Fatalf("share rows: %d", len(tabs[2].Rows))
	}
}

func findRowExact(t *testing.T, tab *Table, row []string) int {
	t.Helper()
	for i := range tab.Rows {
		same := true
		for j := range row {
			if tab.Rows[i][j] != row[j] {
				same = false
				break
			}
		}
		if same {
			return i
		}
	}
	t.Fatal("row not found")
	return -1
}
