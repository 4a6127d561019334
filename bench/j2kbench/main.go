// Command j2kbench is the repository's benchmark. It generates its inputs
// from a seed, runs three workloads that stress different layers of the
// codec, checks every output against a reference, and reports bounded
// end-to-end metrics plus per-layer metrics from a traced process that
// composes the encoder and decoder from the public call into each layer.
//
//	j2kbench -seed 1 -out results.json        # one full set: 3 reps × 3 workloads + traces
//	j2kbench -workload lossless-mq -seed 1 -seconds 30 -trace 0
//	j2kbench compare a.json b.json            # medians, deltas and bounds
//
// Every rep and traced process is a fresh re-exec of this binary, so
// setup_s and dwt.gains_cold_ms are cold starts. BENCHMARK.json, read
// from the repository root it runs in, names the metrics and their
// bounds.
package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"j2kcell/internal/simd"
)

const (
	repsPerSet = 3
	specPath   = "BENCHMARK.json"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("j2kbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "run one workload for -seconds and end with one JSON line (empty: run a full set)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 30, "measured seconds of a -workload run")
	trace := fs.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of a traced process instead of the end-to-end ones")
	out := fs.String("out", "", "full set: write the JSON results to this file")
	child := fs.String("child", "", "internal: run a 'rep' or 'trace' process on inputs read from standard input")
	clients := fs.Int("clients", 1, "internal: closed-loop clients of a child process")
	ops := fs.Int("ops", 0, "internal: timed ops of a child process (0: run for -for)")
	dur := fs.Duration("for", 0, "internal: timed loop length of a child process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return childMain(*child, repConfig{clients: *clients, ops: *ops, dur: *dur})
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "j2kbench:", err)
		return 2
	}
	if *wl != "" {
		return runOne(sp, *wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	return runSet(sp, *seed, *out)
}

// runOne measures one workload for dur: three reps for the end-to-end
// metrics, or one traced process for the per-layer ones. It prints every
// metric, then one JSON line holding exactly the metrics BENCHMARK.json
// names for that mode.
func runOne(sp *spec, name string, seed int64, dur time.Duration, traced bool) int {
	def, err := lookupWorkload(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "j2kbench:", err)
		return 2
	}
	in, enc, err := prepare(def, seed, fullSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "j2kbench: %s setup: %v\n", name, err)
		return 1
	}
	var ms metrics
	var want []specMetric
	var tally Tally
	if traced {
		var tr traceResult
		if err := spawn("trace", repConfig{clients: def.clients, dur: dur}, enc, &tr); err != nil {
			fmt.Fprintln(os.Stderr, "j2kbench:", err)
			return 1
		}
		ms, want = perLayer(&tr), sp.PerLayer
		tally = tr.Tally
	} else {
		var reps []*repResult
		for i := 0; i < repsPerSet; i++ {
			var r repResult
			if err := spawn("rep", repConfig{clients: def.clients, dur: dur / repsPerSet}, enc, &r); err != nil {
				fmt.Fprintln(os.Stderr, "j2kbench:", err)
				return 1
			}
			reps = append(reps, &r)
			tally.add(r.Tally)
		}
		ms, want = endToEnd(in, reps), sp.EndToEnd
	}
	printLines(os.Stdout, name, ms)
	for _, e := range tally.Errs {
		fmt.Fprintln(os.Stderr, "j2kbench: incorrect:", e)
	}
	picked, err := pick(ms, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "j2kbench:", err)
		return 1
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: tally.Failed == 0, Attempted: tally.Attempted, Failed: tally.Failed, Metrics: map[string]value{}}
	for n, m := range picked {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "j2kbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// setResult is the JSON a full set writes.
type setResult struct {
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Workloads []workloadResult `json:"workloads"`
}

type host struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	SIMD       string `json:"simd"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

type workloadResult struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailRatio float64  `json:"fail_ratio"`
	Errors    []string `json:"errors,omitempty"`
	EndToEnd  metrics  `json:"end_to_end"`
	PerLayer  metrics  `json:"per_layer"`
}

// runSet runs one set: repsPerSet reps of every workload, interleaved
// w1 w2 w3 w1 w2 w3 … to spread host drift over all of them, then one
// traced process per workload.
func runSet(sp *spec, seed int64, out string) int {
	ins := make([]*inputs, len(workloads))
	encs := make([][]byte, len(workloads))
	for i, def := range workloads {
		var err error
		if ins[i], encs[i], err = prepare(def, seed, fullSize); err != nil {
			fmt.Fprintf(os.Stderr, "j2kbench: %s setup: %v\n", def.name, err)
			return 1
		}
	}
	reps := make([][]*repResult, len(workloads))
	for r := 0; r < repsPerSet; r++ {
		for i, def := range workloads {
			var res repResult
			if err := spawn("rep", repConfig{clients: def.clients, ops: def.setOps}, encs[i], &res); err != nil {
				fmt.Fprintln(os.Stderr, "j2kbench:", err)
				return 1
			}
			reps[i] = append(reps[i], &res)
		}
	}
	res := setResult{Host: hostInfo(), Seed: seed}
	bad := false
	for i, def := range workloads {
		var tr traceResult
		if err := spawn("trace", repConfig{clients: def.clients, ops: def.setOps / 8}, encs[i], &tr); err != nil {
			fmt.Fprintln(os.Stderr, "j2kbench:", err)
			return 1
		}
		tally := tr.Tally
		for _, r := range reps[i] {
			tally.add(r.Tally)
		}
		wr := workloadResult{
			Name: def.name, Attempted: tally.Attempted, Failed: tally.Failed, Errors: tally.Errs,
			FailRatio: float64(tally.Failed) / float64(tally.Attempted),
			EndToEnd:  endToEnd(ins[i], reps[i]),
			PerLayer:  perLayer(&tr),
		}
		if _, err := pick(wr.EndToEnd, sp.EndToEnd); err != nil {
			fmt.Fprintf(os.Stderr, "j2kbench: %s: %v\n", def.name, err)
			bad = true
		}
		printLines(os.Stdout, def.name, wr.EndToEnd)
		fmt.Printf("%s fail_ratio %.6g ratio %d\n", def.name, wr.FailRatio, wr.Attempted)
		printLines(os.Stdout, def.name, wr.PerLayer)
		for _, e := range wr.Errors {
			fmt.Fprintf(os.Stderr, "j2kbench: %s incorrect: %s\n", def.name, e)
		}
		bad = bad || wr.Failed > 0
		res.Workloads = append(res.Workloads, wr)
	}
	if out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "j2kbench:", err)
			return 1
		}
	}
	if bad {
		return 1
	}
	return 0
}

// prepare builds a workload's inputs and references and their gob
// encoding, which every child process of the run reads.
func prepare(def workloadDef, seed int64, size int) (*inputs, []byte, error) {
	in, err := def.build(seed, size)
	if err != nil {
		return nil, nil, err
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(in); err != nil {
		return nil, nil, err
	}
	return in, b.Bytes(), nil
}

// spawn runs a fresh copy of this binary as a rep or traced process on
// the encoded inputs and decodes its result into out.
func spawn(mode string, cfg repConfig, enc []byte, out any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-child", mode, "-clients", fmt.Sprint(cfg.clients),
		"-ops", fmt.Sprint(cfg.ops), "-for", cfg.dur.String())
	cmd.Stdin = bytes.NewReader(enc)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s process: %w", mode, err)
	}
	return gob.NewDecoder(bytes.NewReader(b)).Decode(out)
}

// childMain is the body of a spawned process: read the inputs, run,
// write the result.
func childMain(mode string, cfg repConfig) int {
	var in inputs
	if err := gob.NewDecoder(os.Stdin).Decode(&in); err != nil {
		fmt.Fprintln(os.Stderr, "j2kbench: reading inputs:", err)
		return 1
	}
	var res any
	switch mode {
	case "rep":
		res = runRep(&in, cfg)
	case "trace":
		res = runTrace(&in, cfg)
	default:
		fmt.Fprintf(os.Stderr, "j2kbench: unknown child mode %q\n", mode)
		return 2
	}
	if err := gob.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "j2kbench: writing result:", err)
		return 1
	}
	return 0
}

// hostInfo describes the machine a set ran on. A field that cannot be
// read is left as "unknown".
func hostInfo() host {
	h := host{CPU: "unknown", GOMAXPROCS: runtime.GOMAXPROCS(0), SIMD: simd.Kernel(), Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}
