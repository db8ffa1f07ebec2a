// Package obs is the observability layer of the reproduction: a
// span-based request tracer and a metrics registry for the simulated
// iPipe substrates (links, NIC cores, scheduler, DMA engines, host
// cores).
//
// The paper's analysis (§2 characterization, §3.2.3 scheduler behaviour,
// Figures 11–15) hinges on *where time goes* as a request crosses
// link → NIC cores → scheduler → DMA → host. The tracer records that
// journey as spans keyed on virtual time (sim.Time, never wall clock),
// so traces are as deterministic as the simulation itself: identical
// seeds produce byte-identical trace files.
//
// Design rules:
//
//   - Disabled means free. Every emit method is nil-safe: a nil *Tracer
//     returns immediately, allocating nothing. Instrumentation sites
//     call unconditionally and pay one predictable branch.
//   - Observation never perturbs. The tracer schedules no events and
//     touches no PRNG; simulation results with tracing on are identical
//     to results with it off (enforced by tests).
//   - Export is deterministic. Track and group numbering follow
//     registration order; events are stably sorted by (track, start)
//     before writing, so every track's timestamps are monotonic.
//
// Track layout: groups map to Chrome trace "processes" (one per node,
// plus one per client port), tracks to "threads" (one per NIC core,
// host core, link direction, DMA engine, accelerator unit, plus a
// "sched" lane for instantaneous scheduler decisions).
package obs

import (
	"sort"

	"repro/internal/sim"
)

// GroupID identifies a trace group (a Chrome trace "process"; one per
// simulated node).
type GroupID int32

// TrackID identifies one horizontal lane of the trace (a Chrome trace
// "thread": one core, one link direction, one DMA engine...).
type TrackID int32

// noGroup/NoTrack are returned by registration on a nil tracer; emitting
// against them is a no-op.
const (
	noGroup GroupID = -1
	NoTrack TrackID = -1
)

// Args carries optional span annotations. It is passed by value so the
// disabled path allocates nothing.
type Args struct {
	// Req is the request-correlation id (the message/packet FlowID);
	// only emitted when HasReq is set, since 0 is a valid id.
	Req    uint64
	HasReq bool
	// Bytes annotates the payload size; emitted when > 0.
	Bytes int
	// Wait annotates queueing delay spent before the span started
	// (enqueue → service); emitted when > 0.
	Wait sim.Time
	// Shard attributes the span to a scale-out shard; only emitted when
	// HasShard is set, since shard 0 is a valid id.
	Shard    int32
	HasShard bool
	// XC/XSrc/XSeq annotate a cross-partition handoff with its
	// deterministic merge stamp: the tracing domain (one per partitioned
	// cluster sharing the tracer), the source partition, and the
	// source-local sequence from sim.Group.Inject. The pair of spans
	// carrying the same (XC, XSrc, XSeq) are the two halves of one
	// crossing; only emitted when HasX is set.
	XC   int32
	XSrc int32
	XSeq uint64
	HasX bool
}

// span is one completed occupancy interval on a track.
type span struct {
	track TrackID
	name  string
	start sim.Time
	end   sim.Time
	args  Args
}

// instant is a point event on a track (scheduler decisions: mode
// switches, migrations, autoscaling moves).
type instant struct {
	track TrackID
	name  string
	at    sim.Time
}

type trackInfo struct {
	group GroupID
	name  string
}

// Tracer buffers spans in memory until exported. Buffering is unbounded
// by design — traces are an offline debugging artifact, bounded by the
// (finite) simulated window, exactly like Chrome's own tracing.
//
// The tracer is sharded: each engine partition emits into its own Sink
// (a private buffer — no cross-partition locks on the emit path; a
// classic cluster is the 1-partition case and emits into sink 0), and
// export merges the shards deterministically (see WriteChromeTrace).
// Registration (Group/NewTrack/Sink/NewDomain) is coordinator-only:
// call it while building the topology, never from concurrent window
// execution.
//
// The zero value is not useful; construct with NewTracer. A nil *Tracer
// is the disabled tracer: every method no-ops.
type Tracer struct {
	groups  []string
	gindex  map[string]GroupID
	tracks  []trackInfo
	sinks   []*Sink
	domains int32
}

// NewTracer returns an empty, enabled tracer.
func NewTracer() *Tracer {
	return &Tracer{gindex: map[string]GroupID{}}
}

// Sink is one partition's private span buffer. Emitting through a Sink
// takes no locks and shares no mutable state with other sinks, so
// partitions can trace concurrently inside PDES windows; determinism of
// the merged artifact follows from each track being owned by exactly
// one partition (see WriteChromeTrace). A nil *Sink — from a nil tracer
// — no-ops every method, preserving the zero-cost disabled path.
type Sink struct {
	t        *Tracer
	spans    []span
	instants []instant
}

// Sink returns partition part's emit buffer, creating buffers up
// through part on first use. Coordinator-only (it grows the sink
// table); call during topology build. A nil tracer returns a nil Sink.
func (t *Tracer) Sink(part int) *Sink {
	if t == nil || part < 0 {
		return nil
	}
	for len(t.sinks) <= part {
		t.sinks = append(t.sinks, &Sink{t: t})
	}
	return t.sinks[part]
}

// NewDomain allocates a tracing-domain id for cross-partition handoff
// stamps. One partitioned cluster = one domain: (domain, src partition,
// Inject seq) is then unique across every cluster sharing this tracer
// (a bench sweep traces many clusters into one file, each cluster's
// Inject seqs restarting at 1).
func (t *Tracer) NewDomain() int32 {
	if t == nil {
		return -1
	}
	t.domains++
	return t.domains - 1
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Group registers (or finds) a trace group by name. Groups render as
// processes in chrome://tracing / Perfetto; use one per node.
func (t *Tracer) Group(name string) GroupID {
	if t == nil {
		return noGroup
	}
	if g, ok := t.gindex[name]; ok {
		return g
	}
	g := GroupID(len(t.groups))
	t.groups = append(t.groups, name)
	t.gindex[name] = g
	return g
}

// NewTrack registers a lane within a group. Lane order in the viewer
// follows registration order.
func (t *Tracer) NewTrack(g GroupID, name string) TrackID {
	if t == nil || g < 0 {
		return NoTrack
	}
	id := TrackID(len(t.tracks))
	t.tracks = append(t.tracks, trackInfo{group: g, name: name})
	return id
}

// Spans reports the number of buffered spans across all sinks
// (instants excluded).
func (t *Tracer) Spans() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, s := range t.sinks {
		n += len(s.spans)
	}
	return n
}

// NewTrack delegates lane registration to the parent tracer.
// Coordinator-only, like Tracer.NewTrack.
func (s *Sink) NewTrack(g GroupID, name string) TrackID {
	if s == nil {
		return NoTrack
	}
	return s.t.NewTrack(g, name)
}

// Span records a completed occupancy [start, end] into this sink's
// private buffer. Safe to call from the partition's window goroutine.
func (s *Sink) Span(tr TrackID, name string, start, end sim.Time, a Args) {
	if s == nil || tr < 0 {
		return
	}
	if end < start {
		end = start
	}
	s.spans = append(s.spans, span{track: tr, name: name, start: start, end: end, args: a})
}

// Instant records a point event into this sink's private buffer.
func (s *Sink) Instant(tr TrackID, name string, at sim.Time) {
	if s == nil || tr < 0 {
		return
	}
	s.instants = append(s.instants, instant{track: tr, name: name, at: at})
}

// Tracks reports the number of registered tracks.
func (t *Tracer) Tracks() int {
	if t == nil {
		return 0
	}
	return len(t.tracks)
}

// EachInstant invokes fn for every buffered instant with its owning
// group's name, in deterministic merged order: ascending time, ties in
// sink index then emission order. The report layer builds its
// mode-switch/migration timelines from this.
func (t *Tracer) EachInstant(fn func(group, name string, at sim.Time)) {
	if t == nil {
		return
	}
	var all []instant
	for _, s := range t.sinks {
		all = append(all, s.instants...)
	}
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return all[idx[i]].at < all[idx[j]].at })
	for _, i := range idx {
		in := &all[i]
		fn(t.groups[t.tracks[in.track].group], in.name, in.at)
	}
}
