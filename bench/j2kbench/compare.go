package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareMain implements `j2kbench compare a.json b.json`: for every
// workload × end-to-end metric it prints both medians, the relative
// delta, the metric's bound, and whether b is within the bound of a.
// It exits 1 when a metric got worse by more than its bound or is
// missing, so two sets of the same code agree when it exits 0 and every
// row reads "ok".
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: j2kbench compare a.json b.json")
		return 2
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "j2kbench:", err)
		return 2
	}
	var sets [2]setResult
	for i := range sets {
		b, err := os.ReadFile(args[i])
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "j2kbench:", err)
			return 2
		}
	}
	if compare(os.Stdout, sp, &sets[0], &sets[1]) {
		return 0
	}
	return 1
}

// compare prints the comparison table and reports whether nothing got
// worse beyond its bound.
func compare(w io.Writer, sp *spec, a, b *setResult) bool {
	find := func(s *setResult, name string) *workloadResult {
		for i := range s.Workloads {
			if s.Workloads[i].Name == name {
				return &s.Workloads[i]
			}
		}
		return nil
	}
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "status")
	ok := true
	inBound, rows := 0, 0
	for _, wl := range sp.Workloads {
		wa, wb := find(a, wl.Name), find(b, wl.Name)
		for _, m := range sp.EndToEnd {
			rows++
			var ma, mb metric
			var okA, okB bool
			if wa != nil {
				ma, okA = wa.EndToEnd.find(m.Name)
			}
			if wb != nil {
				mb, okB = wb.EndToEnd.find(m.Name)
			}
			if !okA || !okB {
				fmt.Fprintf(w, "%-14s %-16s %12s %12s %8s %6s  missing\n", wl.Name, m.Name, "-", "-", "-", "-")
				ok = false
				continue
			}
			delta := 0.0
			if ma.Value != 0 {
				delta = (mb.Value - ma.Value) / ma.Value
			} else if mb.Value != 0 {
				delta = 1
			}
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			status := "ok"
			switch {
			case worse > m.Bound:
				status = "WORSE"
				ok = false
			case -worse > m.Bound:
				status = "better"
			default:
				inBound++
			}
			fmt.Fprintf(w, "%-14s %-16s %12.6g %12.6g %+7.2f%% %5.1f%%  %s\n",
				wl.Name, m.Name, ma.Value, mb.Value, 100*delta, 100*m.Bound, status)
		}
	}
	fmt.Fprintf(w, "%d of %d workload × metric pairs within bound\n", inBound, rows)
	return ok
}
