// Exporters: Chrome trace_event JSON (loadable in chrome://tracing and
// https://ui.perfetto.dev) for the tracer, NDJSON for metric snapshots.
//
// Both writers are hand-rolled rather than reflection-based so output is
// byte-deterministic: field order is fixed, numbers are formatted through
// one code path, and events are stably sorted by (track, start time)
// before writing — which also guarantees monotonically ordered `ts`
// within every (pid, tid) lane, a property ValidateChromeTrace checks.
package obs

import (
	"bufio"
	"io"
	"os"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// WriteArtifact writes an exporter's output to the file at path, or to
// stdout when path is "-": the commands' convention for -trace,
// -metrics and -report.
func WriteArtifact(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMicros appends a sim.Time as decimal microseconds with exact
// nanosecond precision ("12.345"); trace_event timestamps are in µs.
func writeMicros(b []byte, t sim.Time) []byte {
	ns := int64(t)
	if ns < 0 {
		ns = 0
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	if frac != 0 {
		b = append(b, '.')
		b = append(b, byte('0'+frac/100), byte('0'+(frac/10)%10), byte('0'+frac%10))
	}
	return b
}

// appendQuoted appends a JSON string literal.
func appendQuoted(b []byte, s string) []byte {
	return strconv.AppendQuote(b, s)
}

// WriteChromeTrace renders the buffered spans as a Chrome trace_event
// JSON object: {"traceEvents":[...],"displayTimeUnit":"ns"}.
//
// Layout: each group becomes a process (pid = group index + 1) named by
// a process_name metadata event; each track becomes a thread (tid =
// track index + 1) with thread_name and thread_sort_index metadata, so
// the viewer shows lanes in registration order. Spans are "X" (complete)
// events with ts/dur in microseconds and args {req, bytes, wait_us,
// shard, xc/xsrc/xseq}; instants are "i" events with thread scope.
//
// Shard merge: events are gathered from every partition sink in sink
// index order, then stably sorted by (track, start). Because each track
// is owned by exactly one partition (tracks belong to a node; a node
// lives on one partition), within-track order is the owning partition's
// deterministic emission order, so the merged artifact is byte-identical
// at any PDES worker count — the tracing analogue of the (at, src, seq)
// event merge.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var b []byte
	put := func() error {
		_, err := bw.Write(b)
		b = b[:0]
		return err
	}

	b = append(b, `{"displayTimeUnit":"ns","traceEvents":[`...)

	first := true
	sep := func() {
		if first {
			first = false
		} else {
			b = append(b, ',')
		}
		b = append(b, '\n')
	}

	if t != nil {
		// Metadata: process and thread names.
		for gi, gname := range t.groups {
			sep()
			b = append(b, `{"name":"process_name","ph":"M","pid":`...)
			b = strconv.AppendInt(b, int64(gi)+1, 10)
			b = append(b, `,"tid":0,"args":{"name":`...)
			b = appendQuoted(b, gname)
			b = append(b, `}}`...)
		}
		for ti, tk := range t.tracks {
			sep()
			b = append(b, `{"name":"thread_name","ph":"M","pid":`...)
			b = strconv.AppendInt(b, int64(tk.group)+1, 10)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(ti)+1, 10)
			b = append(b, `,"args":{"name":`...)
			b = appendQuoted(b, tk.name)
			b = append(b, `}},`...)
			b = append(b, "\n"...)
			b = append(b, `{"name":"thread_sort_index","ph":"M","pid":`...)
			b = strconv.AppendInt(b, int64(tk.group)+1, 10)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(ti)+1, 10)
			b = append(b, `,"args":{"sort_index":`...)
			b = strconv.AppendInt(b, int64(ti), 10)
			b = append(b, `}}`...)
			if err := put(); err != nil {
				return err
			}
		}

		// Concatenate the partition sinks in index order, then stable
		// sort by (track, start): per-lane monotonic timestamps, and a
		// deterministic merge (see the function comment).
		var allSpans []span
		var allInsts []instant
		for _, sk := range t.sinks {
			allSpans = append(allSpans, sk.spans...)
			allInsts = append(allInsts, sk.instants...)
		}
		spans := make([]int, len(allSpans))
		for i := range spans {
			spans[i] = i
		}
		sort.SliceStable(spans, func(i, j int) bool {
			a, c := &allSpans[spans[i]], &allSpans[spans[j]]
			if a.track != c.track {
				return a.track < c.track
			}
			return a.start < c.start
		})
		for _, si := range spans {
			sp := &allSpans[si]
			tk := t.tracks[sp.track]
			sep()
			b = append(b, `{"name":`...)
			b = appendQuoted(b, sp.name)
			b = append(b, `,"cat":"span","ph":"X","ts":`...)
			b = writeMicros(b, sp.start)
			b = append(b, `,"dur":`...)
			b = writeMicros(b, sp.end-sp.start)
			b = append(b, `,"pid":`...)
			b = strconv.AppendInt(b, int64(tk.group)+1, 10)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(sp.track)+1, 10)
			b = append(b, `,"args":{`...)
			afirst := true
			arg := func(k string) {
				if !afirst {
					b = append(b, ',')
				}
				afirst = false
				b = append(b, '"')
				b = append(b, k...)
				b = append(b, `":`...)
			}
			if sp.args.HasReq {
				arg("req")
				b = strconv.AppendUint(b, sp.args.Req, 10)
			}
			if sp.args.Bytes > 0 {
				arg("bytes")
				b = strconv.AppendInt(b, int64(sp.args.Bytes), 10)
			}
			if sp.args.Wait > 0 {
				arg("wait_us")
				b = writeMicros(b, sp.args.Wait)
			}
			if sp.args.HasShard {
				arg("shard")
				b = strconv.AppendInt(b, int64(sp.args.Shard), 10)
			}
			if sp.args.HasX {
				arg("xc")
				b = strconv.AppendInt(b, int64(sp.args.XC), 10)
				arg("xsrc")
				b = strconv.AppendInt(b, int64(sp.args.XSrc), 10)
				arg("xseq")
				b = strconv.AppendUint(b, sp.args.XSeq, 10)
			}
			b = append(b, `}}`...)
			if err := put(); err != nil {
				return err
			}
		}

		insts := make([]int, len(allInsts))
		for i := range insts {
			insts[i] = i
		}
		sort.SliceStable(insts, func(i, j int) bool {
			a, c := &allInsts[insts[i]], &allInsts[insts[j]]
			if a.track != c.track {
				return a.track < c.track
			}
			return a.at < c.at
		})
		for _, ii := range insts {
			in := &allInsts[ii]
			tk := t.tracks[in.track]
			sep()
			b = append(b, `{"name":`...)
			b = appendQuoted(b, in.name)
			b = append(b, `,"cat":"sched","ph":"i","s":"t","ts":`...)
			b = writeMicros(b, in.at)
			b = append(b, `,"pid":`...)
			b = strconv.AppendInt(b, int64(tk.group)+1, 10)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(in.track)+1, 10)
			b = append(b, `}`...)
			if err := put(); err != nil {
				return err
			}
		}
	}

	b = append(b, "\n]}\n"...)
	if err := put(); err != nil {
		return err
	}
	return bw.Flush()
}

// appendFloat formats a gauge value deterministically (shortest
// round-trip representation).
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// WriteNDJSON renders the buffered metric snapshots, one JSON object per
// line:
//
//	{"t_us":100,"reg":"kv0","metrics":{"fcfs_cores":3,...,"nic_sojourn_us":{"count":12,...}}}
//
// Metric order within a record follows registration order; counters are
// integers, gauges floats, histograms nested objects with
// count/mean/p50/p99/max.
func (c *Collector) WriteNDJSON(w io.Writer) error {
	if c == nil {
		return nil
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var b []byte
	for _, s := range c.snaps {
		r := c.regs[s.reg]
		b = b[:0]
		b = append(b, `{"t_us":`...)
		b = writeMicros(b, s.at)
		b = append(b, `,"reg":`...)
		b = appendQuoted(b, r.name)
		b = append(b, `,"metrics":{`...)
		for i, v := range s.vals {
			if i >= len(r.items) {
				break
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = appendQuoted(b, r.items[i].name)
			b = append(b, ':')
			switch r.items[i].kind {
			case kindCounter:
				b = strconv.AppendUint(b, v.u, 10)
			case kindGauge:
				b = appendFloat(b, v.f)
			case kindHist:
				b = append(b, `{"count":`...)
				b = strconv.AppendUint(b, v.h.count, 10)
				b = append(b, `,"mean":`...)
				b = appendFloat(b, v.h.mean)
				b = append(b, `,"p50":`...)
				b = appendFloat(b, v.h.p50)
				b = append(b, `,"p99":`...)
				b = appendFloat(b, v.h.p99)
				b = append(b, `,"max":`...)
				b = appendFloat(b, v.h.max)
				b = append(b, '}')
			}
		}
		b = append(b, "}}\n"...)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}
