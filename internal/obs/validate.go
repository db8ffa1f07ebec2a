// Validation of emitted artifacts, used by cmd/ipipe-trace and by the
// tests that run the CLIs under -trace/-metrics: a trace file must be
// well-formed trace_event JSON with monotonically ordered timestamps
// per track, and a metrics file must be well-formed NDJSON.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// chromeEvent mirrors the subset of the trace_event schema we emit.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	Pid  int64           `json:"pid"`
	Tid  int64           `json:"tid"`
	Args json.RawMessage `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// TraceStats summarizes a validated trace.
type TraceStats struct {
	Events    int // all events, metadata included
	Spans     int // "X" complete events
	Instants  int // "i" events
	Processes int // distinct pids with a process_name
	Tracks    int // distinct (pid, tid) lanes carrying spans or instants
	Handoffs  int // paired cross-partition handoff crossings
	// HandoffsInFlight counts "handoff out" spans whose arrival lies
	// beyond the last completed event — packets still on the wire when
	// the run window closed, legitimately missing their "in" half.
	HandoffsInFlight int
}

// xstamp is a cross-partition handoff identity: tracing domain, source
// partition, and source-local Inject sequence.
type xstamp struct {
	xc, xsrc int64
	xseq     uint64
}

// xhalf is one side of a crossing as seen in the artifact.
type xhalf struct {
	seen bool
	ts   float64 // "out": departure; "in": arrival
	dur  float64
}

// ValidateChromeTrace parses a trace_event JSON document and checks the
// invariants the exporter promises:
//
//   - well-formed JSON with a traceEvents array,
//   - every event has a known phase (M, X, or i) and pid/tid,
//   - "X" events have non-negative ts and dur,
//   - per (pid, tid) lane, "X" timestamps are monotonically
//     non-decreasing, and "i" timestamps likewise (spans and instants
//     on one track never go back in time),
//   - every pid carrying spans has a process_name, and every lane a
//     thread_name,
//   - merged partitioned artifacts pair up: every (xc, xsrc, xseq)
//     handoff stamp appears exactly once as a "handoff out" span and
//     once as a "handoff in" span (no duplicate stamps across partition
//     shards), and the in side starts where the out side ends. An out
//     half whose arrival lies beyond the last completed event is exempt
//     (the packet was in flight when the run window closed — under the
//     conservative engine every partition has advanced past any earlier
//     arrival, so a missing in there would have been recorded).
func ValidateChromeTrace(r io.Reader) (TraceStats, error) {
	var st TraceStats
	var doc chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return st, fmt.Errorf("trace: not valid JSON: %w", err)
	}

	type lane struct{ pid, tid int64 }
	lastTs := map[lane]float64{}
	lastInst := map[lane]float64{}
	namedProc := map[int64]bool{}
	namedLane := map[lane]bool{}
	usedProc := map[int64]bool{}
	usedLane := map[lane]bool{}
	outs := map[xstamp]xhalf{}
	ins := map[xstamp]xhalf{}

	// maxCompleted tracks the latest time any event finished. "handoff
	// out" is the only prospective span (emitted at departure, ending at
	// a future arrival), so it contributes its start, not its end.
	var maxCompleted float64

	for i, ev := range doc.TraceEvents {
		st.Events++
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				namedProc[ev.Pid] = true
			case "thread_name":
				namedLane[lane{ev.Pid, ev.Tid}] = true
			case "thread_sort_index":
				// layout hint only
			default:
				return st, fmt.Errorf("trace: event %d: unknown metadata %q", i, ev.Name)
			}
		case "X":
			st.Spans++
			if ev.Ts < 0 || ev.Dur < 0 {
				return st, fmt.Errorf("trace: event %d (%q): negative ts/dur", i, ev.Name)
			}
			l := lane{ev.Pid, ev.Tid}
			if prev, ok := lastTs[l]; ok && ev.Ts < prev {
				return st, fmt.Errorf("trace: event %d (%q): ts %.3f before %.3f on pid=%d tid=%d",
					i, ev.Name, ev.Ts, prev, ev.Pid, ev.Tid)
			}
			lastTs[l] = ev.Ts
			usedProc[ev.Pid] = true
			usedLane[l] = true
			if end := ev.Ts + ev.Dur; ev.Name == "handoff out" {
				if ev.Ts > maxCompleted {
					maxCompleted = ev.Ts
				}
			} else if end > maxCompleted {
				maxCompleted = end
			}
			if stamp, ok, err := handoffStamp(ev); err != nil {
				return st, fmt.Errorf("trace: event %d (%q): %w", i, ev.Name, err)
			} else if ok {
				var side map[xstamp]xhalf
				switch ev.Name {
				case "handoff out":
					side = outs
				case "handoff in":
					side = ins
				default:
					return st, fmt.Errorf("trace: event %d: handoff stamp on non-handoff span %q", i, ev.Name)
				}
				if side[stamp].seen {
					return st, fmt.Errorf("trace: event %d: duplicate %q stamp (xc=%d xsrc=%d xseq=%d)",
						i, ev.Name, stamp.xc, stamp.xsrc, stamp.xseq)
				}
				side[stamp] = xhalf{seen: true, ts: ev.Ts, dur: ev.Dur}
			}
		case "i":
			st.Instants++
			if ev.Ts < 0 {
				return st, fmt.Errorf("trace: event %d (%q): negative ts", i, ev.Name)
			}
			l := lane{ev.Pid, ev.Tid}
			if prev, ok := lastInst[l]; ok && ev.Ts < prev {
				return st, fmt.Errorf("trace: event %d (%q): instant ts %.3f before %.3f on pid=%d tid=%d",
					i, ev.Name, ev.Ts, prev, ev.Pid, ev.Tid)
			}
			lastInst[l] = ev.Ts
			usedProc[ev.Pid] = true
			usedLane[l] = true
			if ev.Ts > maxCompleted {
				maxCompleted = ev.Ts
			}
		default:
			return st, fmt.Errorf("trace: event %d (%q): unknown phase %q", i, ev.Name, ev.Ph)
		}
	}
	for pid := range usedProc {
		if !namedProc[pid] {
			return st, fmt.Errorf("trace: pid %d carries events but has no process_name", pid)
		}
	}
	for l := range usedLane {
		if !namedLane[l] {
			return st, fmt.Errorf("trace: pid %d tid %d carries events but has no thread_name", l.pid, l.tid)
		}
	}
	st.Processes = len(namedProc)
	st.Tracks = len(usedLane)

	// Pair the handoff halves: the merged artifact must contain both
	// sides of every crossing, and the in side must start at the ns the
	// out side ends (compare at nanosecond grain — ts values are decimal
	// microseconds that are not exactly representable in binary floats).
	for stamp, out := range outs {
		in, ok := ins[stamp]
		if !ok {
			if nanos(out.ts+out.dur) > nanos(maxCompleted) {
				st.HandoffsInFlight++
				continue
			}
			return st, fmt.Errorf("trace: handoff out (xc=%d xsrc=%d xseq=%d) has no matching handoff in",
				stamp.xc, stamp.xsrc, stamp.xseq)
		}
		if nanos(out.ts+out.dur) != nanos(in.ts) {
			return st, fmt.Errorf("trace: handoff (xc=%d xsrc=%d xseq=%d): out ends at %.3fµs but in starts at %.3fµs",
				stamp.xc, stamp.xsrc, stamp.xseq, out.ts+out.dur, in.ts)
		}
		st.Handoffs++
	}
	for stamp := range ins {
		if !outs[stamp].seen {
			return st, fmt.Errorf("trace: handoff in (xc=%d xsrc=%d xseq=%d) has no matching handoff out",
				stamp.xc, stamp.xsrc, stamp.xseq)
		}
	}
	return st, nil
}

// nanos rounds a microsecond timestamp to integer nanoseconds.
func nanos(us float64) int64 { return int64(math.Round(us * 1000)) }

// handoffStamp extracts the (xc, xsrc, xseq) annotation from a span's
// args, reporting whether one is present. A partial stamp is an error.
func handoffStamp(ev chromeEvent) (xstamp, bool, error) {
	if len(ev.Args) == 0 {
		return xstamp{}, false, nil
	}
	var a struct {
		XC   *int64  `json:"xc"`
		XSrc *int64  `json:"xsrc"`
		XSeq *uint64 `json:"xseq"`
	}
	if err := json.Unmarshal(ev.Args, &a); err != nil {
		return xstamp{}, false, fmt.Errorf("bad args: %w", err)
	}
	if a.XC == nil && a.XSrc == nil && a.XSeq == nil {
		return xstamp{}, false, nil
	}
	if a.XC == nil || a.XSrc == nil || a.XSeq == nil {
		return xstamp{}, false, fmt.Errorf("partial handoff stamp (need xc, xsrc, xseq)")
	}
	return xstamp{xc: *a.XC, xsrc: *a.XSrc, xseq: *a.XSeq}, true, nil
}

// MetricsStats summarizes a validated metrics file.
type MetricsStats struct {
	Records    int
	Registries int
}

// ValidateMetricsNDJSON checks a metric-snapshot file: every line is a
// JSON object with a non-negative t_us, a reg name, and a metrics
// object, and per registry t_us is monotonically non-decreasing.
func ValidateMetricsNDJSON(r io.Reader) (MetricsStats, error) {
	var st MetricsStats
	last := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec struct {
			TUs     float64                    `json:"t_us"`
			Reg     string                     `json:"reg"`
			Metrics map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return st, fmt.Errorf("metrics: line %d: %w", line, err)
		}
		if rec.TUs < 0 {
			return st, fmt.Errorf("metrics: line %d: negative t_us", line)
		}
		if rec.Reg == "" {
			return st, fmt.Errorf("metrics: line %d: missing reg", line)
		}
		if rec.Metrics == nil {
			return st, fmt.Errorf("metrics: line %d: missing metrics object", line)
		}
		if prev, ok := last[rec.Reg]; ok && rec.TUs < prev {
			return st, fmt.Errorf("metrics: line %d: t_us %.3f before %.3f for reg %q",
				line, rec.TUs, prev, rec.Reg)
		}
		last[rec.Reg] = rec.TUs
		st.Records++
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("metrics: %w", err)
	}
	st.Registries = len(last)
	return st, nil
}
