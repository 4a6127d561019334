package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of the aggregate
// registry. The /metrics endpoint the j2k* commands serve calls
// WritePrometheus on every scrape; because the registry is monotone
// (recorders roll in on close, nothing ever resets), the exported
// counters and cumulative `le` histogram buckets have exactly the
// semantics Prometheus rate() and histogram_quantile() assume.
//
// Families:
//
//	j2k_<counter>_total                          counters (queue jobs, Tier-1 ops, pool hits, …)
//	j2k_operations_total{class=...}              completed operations per SLO class
//	j2k_operations_active                        gauge of in-flight operations
//	j2k_operation_errors_total                   operations finished with an error
//	j2k_op_duration_seconds{class=...}           whole-operation latency histograms (SLO)
//	j2k_stage_duration_seconds{stage=...}        per-stage span latency histograms
//	j2k_spans_dropped_total                      spans lost to lane-buffer overflow
func (g *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)

	// Counters, in declaration order (stable output for golden tests).
	for c := Counter(0); c < numCounters; c++ {
		name := "j2k_" + c.String() + "_total"
		fmt.Fprintf(bw, "# HELP %s Aggregate %s count.\n", name, strings.ReplaceAll(c.String(), "_", " "))
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		fmt.Fprintf(bw, "%s %d\n", name, g.Counter(c))
	}

	// Completed operations per class (only classes that occurred, so an
	// idle process exports an empty family rather than 16 zero series).
	fmt.Fprint(bw, "# HELP j2k_operations_total Completed operations by SLO class.\n")
	fmt.Fprint(bw, "# TYPE j2k_operations_total counter\n")
	for c := OpClass(0); c < NumOpClasses; c++ {
		if n := g.Ops(c); n > 0 {
			fmt.Fprintf(bw, "j2k_operations_total{class=%q} %d\n", escapeLabel(c.String()), n)
		}
	}

	fmt.Fprint(bw, "# HELP j2k_operations_active Operations currently in flight.\n")
	fmt.Fprint(bw, "# TYPE j2k_operations_active gauge\n")
	fmt.Fprintf(bw, "j2k_operations_active %d\n", g.OpsActive())

	fmt.Fprint(bw, "# HELP j2k_operation_errors_total Operations that finished with an error.\n")
	fmt.Fprint(bw, "# TYPE j2k_operation_errors_total counter\n")
	fmt.Fprintf(bw, "j2k_operation_errors_total %d\n", g.OpErrors())

	// SLO latency histograms by operation class.
	fmt.Fprint(bw, "# HELP j2k_op_duration_seconds Whole-operation latency by SLO class.\n")
	fmt.Fprint(bw, "# TYPE j2k_op_duration_seconds histogram\n")
	for c := OpClass(0); c < NumOpClasses; c++ {
		h := g.SLO(c)
		if h.Count() == 0 {
			continue
		}
		writeHistogram(bw, "j2k_op_duration_seconds", "class", c.String(), h)
	}

	// Per-stage span latency histograms.
	fmt.Fprint(bw, "# HELP j2k_stage_duration_seconds Pipeline stage span latency.\n")
	fmt.Fprint(bw, "# TYPE j2k_stage_duration_seconds histogram\n")
	for s := Stage(0); s < numStages; s++ {
		h := g.Hist(s)
		if h.Count() == 0 {
			continue
		}
		writeHistogram(bw, "j2k_stage_duration_seconds", "stage", s.String(), h)
	}

	fmt.Fprint(bw, "# HELP j2k_spans_dropped_total Spans lost to lane-buffer overflow.\n")
	fmt.Fprint(bw, "# TYPE j2k_spans_dropped_total counter\n")
	fmt.Fprintf(bw, "j2k_spans_dropped_total %d\n", g.Dropped())

	return bw.Flush()
}

// writeHistogram emits one labeled histogram series: cumulative
// `le`-bucket lines (log-linear upper bounds converted to seconds, empty
// buckets elided — a legal sparse exposition since each emitted bucket
// still carries the full cumulative count), the mandatory `+Inf`
// bucket, and the `_sum` / `_count` pair.
func writeHistogram(w io.Writer, name, labelKey, labelVal string, h *Histogram) {
	lv := escapeLabel(labelVal)
	var cum int64
	for i := 0; i < NumHistBuckets; i++ {
		n := h.Bucket(i)
		if n == 0 {
			continue
		}
		cum += n
		le := strconv.FormatFloat(float64(BucketBound(i))/1e9, 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, labelKey, lv, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, labelKey, lv, cum)
	sum := strconv.FormatFloat(float64(h.Sum())/1e9, 'g', -1, 64)
	fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", name, labelKey, lv, sum)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, labelKey, lv, cum)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// PromSample is one parsed sample line of a text exposition.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsePrometheus is a minimal scraper for the text exposition format:
// it validates comment lines (# HELP / # TYPE with a known metric
// type) and parses every sample into name, labels, and value. The
// j2kload self-check and the exposition round-trip tests use it; it is
// not a general Prometheus client.
func ParsePrometheus(r io.Reader) ([]PromSample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var out []PromSample
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("prom: line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("prom: line %d: TYPE needs a metric type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("prom: line %d: unknown metric type %q", lineNo, fields[3])
				}
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("prom: line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseSample parses `name{k="v",...} value` or `name value`.
func parseSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " ")
	// A timestamp after the value is legal; take the first field.
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a `{k="v",...}` block starting at s[0] == '{',
// returning the index just past the closing brace.
func parseLabels(s string, into map[string]string) (int, error) {
	i := 1
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("label without '='")
		}
		key := s[i : i+eq]
		if !validMetricName(key) {
			return 0, fmt.Errorf("invalid label name %q", key)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value not quoted")
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("unterminated label value")
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("dangling escape")
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, fmt.Errorf("bad escape \\%c", s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		into[key] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// validMetricName checks the exposition's [a-zA-Z_:][a-zA-Z0-9_:]*
// metric-name grammar (':' is reserved for recording rules but legal).
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
