package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome trace event format (the `chrome://tracing` / Perfetto JSON
// schema): complete events ("ph":"X") with microsecond timestamps, one
// thread per track, plus thread-name metadata events so the UI labels
// each worker lane.

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// OpTrace is one operation's exported timeline: its trace ID and kind
// label the process row, its spans become the row's threads, and its
// counters ride along as process metadata.
type OpTrace struct {
	TraceID  string
	Kind     string
	Spans    []TSpan // nanosecond timestamps
	Counters map[string]int64
}

// WriteChromeTrace serializes operations as one Chrome trace JSON
// document, one pid per operation, so the trace viewer shows
// concurrent operations as separate interleaved process rows labeled
// by trace ID and kind. All span timestamps share one clock, so rows
// line up on a common timeline.
func WriteChromeTrace(w io.Writer, ops ...OpTrace) error {
	var events []chromeEvent
	for i, op := range ops {
		name := op.Kind
		if op.TraceID != "" {
			name = op.TraceID
			if op.Kind != "" {
				name += " (" + op.Kind + ")"
			}
		}
		events = appendProcessEvents(events, i+1, name, op.Spans, op.Counters)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// appendProcessEvents appends one process row (metadata + complete
// events) for a span set under the given pid.
func appendProcessEvents(events []chromeEvent, pid int, name string, spans []TSpan, counters map[string]int64) []chromeEvent {
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name},
	})
	if len(counters) > 0 {
		meta := map[string]any{}
		for k, v := range counters {
			meta[k] = v
		}
		events = append(events, chromeEvent{
			Name: "counters", Ph: "M", Pid: pid, Args: meta,
		})
	}
	tids := map[string]int{}
	for _, track := range Tracks(spans) {
		tid := len(tids)
		tids[track] = tid
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": track},
		})
	}
	ordered := append([]TSpan(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })
	for _, s := range ordered {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "stage", Ph: "X", Pid: pid, Tid: tids[s.Track],
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
		})
	}
	return events
}
