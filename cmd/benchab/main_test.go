package main

import (
	"strings"
	"testing"
)

// canned is `go test -bench -benchmem -cpu 1` output as a test binary
// prints it, with a log line, a sub-benchmark and a custom metric.
const canned = `goos: linux
goarch: amd64
pkg: j2kcell/internal/t1
cpu: Intel(R) Xeon(R) Processor
Benchmark_HTEncodeBlock/LL/sparse/32x32         	  100000	      6673 ns/op	 613.80 MB/s	    1234 B/op	       3 allocs/op
Benchmark_Kernel_PlaneMaskRow/avx2              	 1000000	       278.5 ns/op	14705.94 MB/s
Benchmark_Odd	some log line from the benchmark
Benchmark_Custom   	     500	   2000000 ns/op	        17.00 blocks/op	       0 B/op	       0 allocs/op
PASS
ok  	j2kcell/internal/t1	3.120s
`

func TestParseBench(t *testing.T) {
	names, res, err := parseBench(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Benchmark_HTEncodeBlock/LL/sparse/32x32", "Benchmark_Kernel_PlaneMaskRow/avx2", "Benchmark_Custom"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("names %q, want %q", names, want)
	}
	for name, r := range map[string]result{
		want[0]: {nsOp: 6673, bytesOp: 1234, allocsOp: 3},
		want[1]: {nsOp: 278.5},
		want[2]: {nsOp: 2e6},
	} {
		if res[name] != r {
			t.Errorf("%s: %+v, want %+v", name, res[name], r)
		}
	}
}

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, md, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{4, 1, 3, 2}, 1.5, 2.5, 3.5},
		{[]float64{7, 1, 5, 3, 9}, 2, 5, 8},
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 5.5, 8},
	} {
		q1, md, q3 := quartiles(c.xs)
		if q1 != c.q1 || md != c.md || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, md, q3, c.q1, c.md, c.q3)
		}
	}
}

func TestSummarize(t *testing.T) {
	round := func(x, y float64) map[string]result {
		return map[string]result{
			"BenchmarkX": {nsOp: x, bytesOp: 64, allocsOp: 1},
			"BenchmarkY": {nsOp: y},
		}
	}
	a := []map[string]result{round(100, 10), round(110, 10), round(90, 10), round(105, 10)}
	b := []map[string]result{round(80, 12), round(120, 9), round(85, 11), round(95, 10)}
	delete(b[2], "BenchmarkY") // missing from one round: no row
	rows := summarize([]string{"BenchmarkX", "BenchmarkY"}, a, b)
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1: %+v", len(rows), rows)
	}
	r := rows[0]
	// A sorted: 90 100 105 110 → median 102.5, hinges 95 and 107.5.
	// B sorted: 80 85 95 120 → median 90, hinges 82.5 and 107.5.
	// B is faster in rounds 1, 3 and 4.
	want := row{name: "BenchmarkX", aMed: 102.5, aIQR: 12.5, bMed: 90, bIQR: 25,
		delta: (90 - 102.5) / 102.5, wins: 3, rounds: 4, aBytes: 64, bBytes: 64, aAllocs: 1, bAllocs: 1}
	if r != want {
		t.Fatalf("row %+v, want %+v", r, want)
	}
	var out strings.Builder
	if err := printRows(&out, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-12.2%") || !strings.Contains(out.String(), "3/4") {
		t.Fatalf("table lacks the delta or the win count:\n%s", out.String())
	}
}
