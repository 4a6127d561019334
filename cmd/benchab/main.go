// Command benchab compares two prebuilt Go test binaries benchmark by
// benchmark: the A/B measurement for block- and kernel-level changes,
// where one run of each side is too noisy to decide anything.
//
// Build the two sides once with `go test -c`, then alternate them:
//
//	(cd old/internal/t1 && go test -c -o /tmp/old.test .)
//	(cd new/internal/t1 && go test -c -o /tmp/new.test .)
//	benchab -a /tmp/old.test -b /tmp/new.test -dir new/internal/t1 \
//		-bench 'Benchmark_HTEncodeBlock' -rounds 10
//
// Each round runs both binaries once at -test.cpu 1 with -benchmem,
// alternating which side goes first. For every benchmark both sides
// report, it prints the median ns/op of each side with its
// interquartile range (IQR), the change of the medians, how many
// rounds B ran faster than A, and the median B/op and allocs/op of
// each side.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// result is one benchmark line of `go test -bench -benchmem` output.
type result struct {
	nsOp, bytesOp, allocsOp float64
}

// parseBench reads `go test -bench` output and returns the results by
// benchmark name, in first-seen order. Lines that are not benchmark
// results (headers, PASS, logs) are skipped; a repeated name keeps its
// last result.
func parseBench(r io.Reader) (names []string, res map[string]result, err error) {
	res = map[string]result{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // a benchmark's log line, not its result
		}
		var v result
		ok := false
		for i := 2; i+1 < len(f); i += 2 {
			x, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				v.nsOp, ok = x, true
			case "B/op":
				v.bytesOp = x
			case "allocs/op":
				v.allocsOp = x
			}
		}
		if !ok {
			continue
		}
		if _, seen := res[f[0]]; !seen {
			names = append(names, f[0])
		}
		res[f[0]] = v
	}
	return names, res, sc.Err()
}

// quartiles returns the lower hinge, median and upper hinge of xs: the
// medians of the lower half, the whole and the upper half, the middle
// value of an odd count belonging to neither half.
// A single value is its own hinges.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	median := func(s []float64) float64 {
		n := len(s)
		if n == 0 {
			return 0
		}
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	}
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	h := len(s) / 2
	return median(s[:h]), median(s), median(s[len(s)-h:])
}

// row is the summary of one benchmark over all rounds.
type row struct {
	name             string
	aMed, aIQR       float64
	bMed, bIQR       float64
	delta            float64 // (bMed − aMed) / aMed
	wins, rounds     int     // rounds where B's ns/op < A's
	aBytes, bBytes   float64
	aAllocs, bAllocs float64
}

// summarize builds one row per benchmark present in every round of
// both sides, in the order the first round of A printed them.
func summarize(names []string, a, b []map[string]result) []row {
	var rows []row
	for _, name := range names {
		var an, bn, ab, bb, aa, ba []float64
		wins := 0
		complete := len(a) > 0 && len(a) == len(b)
		for i := 0; complete && i < len(a); i++ {
			ra, okA := a[i][name]
			rb, okB := b[i][name]
			if !okA || !okB {
				complete = false
				break
			}
			an, bn = append(an, ra.nsOp), append(bn, rb.nsOp)
			ab, bb = append(ab, ra.bytesOp), append(bb, rb.bytesOp)
			aa, ba = append(aa, ra.allocsOp), append(ba, rb.allocsOp)
			if rb.nsOp < ra.nsOp {
				wins++
			}
		}
		if !complete {
			continue
		}
		r := row{name: name, wins: wins, rounds: len(a)}
		var q1, q3 float64
		q1, r.aMed, q3 = quartiles(an)
		r.aIQR = q3 - q1
		q1, r.bMed, q3 = quartiles(bn)
		r.bIQR = q3 - q1
		if r.aMed != 0 {
			r.delta = (r.bMed - r.aMed) / r.aMed
		}
		_, r.aBytes, _ = quartiles(ab)
		_, r.bBytes, _ = quartiles(bb)
		_, r.aAllocs, _ = quartiles(aa)
		_, r.bAllocs, _ = quartiles(ba)
		rows = append(rows, r)
	}
	return rows
}

func printRows(w io.Writer, rows []row) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\tA ns/op\tA IQR\tB ns/op\tB IQR\tdelta\tB wins\tA B/op\tB B/op\tA allocs\tB allocs\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%+.1f%%\t%d/%d\t%.0f\t%.0f\t%.0f\t%.0f\t\n",
			r.name, r.aMed, r.aIQR, r.bMed, r.bIQR, 100*r.delta, r.wins, r.rounds,
			r.aBytes, r.bBytes, r.aAllocs, r.bAllocs)
	}
	return tw.Flush()
}

// runOnce runs one test binary's benchmarks and parses its output.
func runOnce(bin, dir string, args []string) ([]string, map[string]result, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w\n%s", bin, err, out.Bytes())
	}
	return parseBench(&out)
}

func main() {
	binA := flag.String("a", "", "test binary of side A (the base)")
	binB := flag.String("b", "", "test binary of side B (the change)")
	dir := flag.String("dir", ".", "working directory of both binaries (their package directory)")
	bench := flag.String("bench", ".", "benchmarks to run (-test.bench regexp)")
	benchtime := flag.String("benchtime", "1s", "-test.benchtime of each run")
	rounds := flag.Int("rounds", 10, "number of A/B rounds")
	flag.Parse()
	if *binA == "" || *binB == "" || *rounds < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchab -a base.test -b change.test [-dir pkgdir] [-bench re] [-benchtime t] [-rounds n]")
		os.Exit(2)
	}
	args := []string{"-test.run", "^$", "-test.bench", *bench, "-test.benchmem",
		"-test.cpu", "1", "-test.count", "1", "-test.benchtime", *benchtime, "-test.timeout", "30m"}
	var names []string
	var resA, resB []map[string]result
	for r := 0; r < *rounds; r++ {
		for k := range 2 {
			isA := (r+k)%2 == 0 // A first in even rounds, B first in odd ones
			bin := *binB
			if isA {
				bin = *binA
			}
			n, res, err := runOnce(bin, *dir, args)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchab:", err)
				os.Exit(1)
			}
			if !isA {
				resB = append(resB, res)
				continue
			}
			resA = append(resA, res)
			if names == nil {
				names = n
			}
		}
		fmt.Fprintf(os.Stderr, "benchab: round %d/%d done\n", r+1, *rounds)
	}
	if err := printRows(os.Stdout, summarize(names, resA, resB)); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}
