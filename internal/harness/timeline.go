package harness

import (
	"fmt"
	"io"
	"strings"

	"j2kcell/internal/cell"
	"j2kcell/internal/codec"
	"j2kcell/internal/core"
	"j2kcell/internal/obs"
	"j2kcell/internal/sim"
)

// RenderTimeline draws a text Gantt of a traced run: one lane per
// processing element, `cols` buckets across the makespan, each bucket
// shaded by the PE's busy fraction in that window, with stage
// boundaries marked underneath.
func RenderTimeline(res *core.Result, cols int) string {
	if res.Trace == nil {
		return "(no trace: set Config.Trace)\n"
	}
	if cols < 10 {
		cols = 10
	}
	shades := []rune{'·', '░', '▒', '▓', '█'}
	var b strings.Builder
	total := res.Cycles
	spans := res.Trace.TSpans()
	lane := func(pe string) {
		fmt.Fprintf(&b, "%-6s ", pe)
		for c := 0; c < cols; c++ {
			a := sim.Time(int64(total) * int64(c) / int64(cols))
			z := sim.Time(int64(total) * int64(c+1) / int64(cols))
			if z == a {
				z = a + 1
			}
			busy := float64(obs.BusyInWindow(spans, pe, int64(a), int64(z))) / float64(z-a)
			idx := int(busy * float64(len(shades)))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteRune(shades[idx])
		}
		b.WriteByte('\n')
	}
	for i := range res.SPEBusy {
		lane(fmt.Sprintf("spe%d", i))
	}
	for i := range res.PPEBusy {
		lane(fmt.Sprintf("ppe%d", i))
	}
	// Stage boundary ruler.
	ruler := make([]rune, cols)
	for i := range ruler {
		ruler[i] = ' '
	}
	acc := sim.Time(0)
	for _, st := range res.Stages[:len(res.Stages)-1] {
		acc += st.Cycles
		pos := int(int64(acc) * int64(cols) / int64(total))
		if pos >= 0 && pos < cols {
			ruler[pos] = '|'
		}
	}
	fmt.Fprintf(&b, "%-6s %s\n", "stage", string(ruler))
	var names []string
	for _, st := range res.Stages {
		names = append(names, fmt.Sprintf("%s %.0f%%", st.Name, 100*float64(st.Cycles)/float64(total)))
	}
	fmt.Fprintf(&b, "       %s\n", strings.Join(names, " | "))
	fmt.Fprintf(&b, "       makespan %.4g ms, chip utilization %.0f%%\n",
		1e3*cell.Seconds(total), 100*res.Utilization())
	return b.String()
}

// Profile runs a traced 8-SPE lossless encode and renders its timeline
// — the chip-utilization view behind the paper's "enhance the overall
// chip utilization" design argument.
func Profile(p Params) string {
	img := p.DialImage()
	var b strings.Builder
	for _, mode := range []struct {
		name string
		opt  codec.Options
	}{{"lossless", losslessOpt()}, {"lossy rate 0.1", lossyOpt()}} {
		cfg := core.DefaultConfig(8, mode.opt)
		cfg.Trace = true
		cfg.PPET1 = true
		res, err := core.Encode(img, cfg)
		must(err)
		fmt.Fprintf(&b, "## Execution profile — %s, 8 SPE + 1 PPE (%dx%d dial)\n",
			mode.name, p.W, p.H)
		b.WriteString(RenderTimeline(res, 96))
		b.WriteByte('\n')
	}
	return b.String()
}

// TracedRun executes one traced 8-SPE + PPE lossless encode of the
// dial workload — the same run Profile renders — and returns the raw
// result so callers can export its timeline (WriteSimTrace).
func TracedRun(p Params) (*core.Result, error) {
	cfg := core.DefaultConfig(8, losslessOpt())
	cfg.Trace = true
	cfg.PPET1 = true
	return core.Encode(p.DialImage(), cfg)
}

// WriteSimTrace exports a traced simulator run as Chrome trace JSON:
// one thread per modeled PE, spans named by pipeline phase, model
// cycles rescaled to wall-clock nanoseconds at the 3.2 GHz design
// frequency. Loads in chrome://tracing / Perfetto alongside native
// encoder traces.
func WriteSimTrace(w io.Writer, res *core.Result) error {
	if res.Trace == nil {
		return fmt.Errorf("harness: no trace recorded (set Config.Trace)")
	}
	counters := map[string]int64{
		"cycles":          int64(res.Cycles),
		"mem_total_bytes": res.MemBytes,
	}
	return obs.WriteChromeTrace(w, obs.OpTrace{Kind: "cell model encode", Spans: res.Trace.TSpansNS(), Counters: counters})
}

// coreDefaultTraced and coreEncode are small test seams.
func coreDefaultTraced() core.Config {
	cfg := core.DefaultConfig(8, losslessOpt())
	cfg.Trace = true
	return cfg
}

func coreEncode(p Params, cfg core.Config) (*core.Result, error) {
	return core.Encode(p.DialImage(), cfg)
}
