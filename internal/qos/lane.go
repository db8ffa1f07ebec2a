package qos

import (
	"repro/internal/actor"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// laneQueue is a FIFO with amortized O(1) pop (head cursor, buffer
// recycled when drained).
type laneQueue struct {
	buf  []actor.Msg
	head int
}

func (q *laneQueue) depth() int { return len(q.buf) - q.head }

func (q *laneQueue) push(m actor.Msg) { q.buf = append(q.buf, m) }

func (q *laneQueue) pop() actor.Msg {
	m := q.buf[q.head]
	q.buf[q.head] = actor.Msg{}
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}

// LaneSched is one node's strict-priority lane front: wire messages are
// offered here after traffic-gate admission and before the FCFS/DRR
// actor scheduler. Lanes dispatch in priority order (control > data >
// telemetry), spaced by a fixed dispatch cost; per-lane watermarks
// trigger the RK-03 actions — shed telemetry, backpressure data, never
// touch control.
//
// All state changes happen on the owning node's engine, so a
// partitioned cluster runs one LaneSched per node with no shared state
// and byte-identical results at any worker count.
type LaneSched struct {
	eng     *sim.Engine
	cfg     LaneConfig
	deliver func(actor.Msg)
	label   string

	queues  [NumLanes]laneQueue
	pumping bool

	chk *invariant.Checker

	sink   *obs.Sink
	tracks [NumLanes]obs.TrackID

	// Per-lane counters (indexed by Lane).
	Enqueued  [NumLanes]uint64
	Delivered [NumLanes]uint64
	Shed      [NumLanes]uint64
	// Backpressured counts data-lane deferrals (the message is offered
	// again after BackpressureDelay; it is never dropped).
	Backpressured uint64
}

// newLaneSched builds a lane scheduler delivering into the node's actor
// scheduler. label names the node in invariant reports and metrics.
func newLaneSched(eng *sim.Engine, cfg LaneConfig, label string, deliver func(actor.Msg)) *LaneSched {
	return &LaneSched{
		eng:     eng,
		cfg:     cfg.withDefaults(),
		label:   label,
		deliver: deliver,
	}
}

// EnableInvariants attaches the runtime checker: every enqueue,
// delivery, and shed feeds the lane-conservation ledger, deliveries are
// audited for strict priority, and control sheds are violations.
func (ls *LaneSched) EnableInvariants(chk *invariant.Checker) {
	if chk.Enabled() && ls.chk == nil {
		ls.chk = chk
	}
}

// EnableTracing adds one trace track per lane to the node's group
// (named by Lane.String, so trace lanes, metric prefixes, and checker
// reports share the vocabulary); watermark actions emit instants.
func (ls *LaneSched) EnableTracing(sink *obs.Sink, g obs.GroupID) {
	if sink == nil || ls.sink != nil {
		return
	}
	ls.sink = sink
	for l := Lane(0); l < NumLanes; l++ {
		ls.tracks[l] = sink.NewTrack(g, l.String())
	}
}

// RegisterMetrics exposes the per-lane counters on a registry.
func (ls *LaneSched) RegisterMetrics(reg *obs.Registry) {
	for l := Lane(0); l < NumLanes; l++ {
		l := l
		reg.Counter(l.String()+"_enqueued", func() uint64 { return ls.Enqueued[l] })
		reg.Counter(l.String()+"_delivered", func() uint64 { return ls.Delivered[l] })
		reg.Counter(l.String()+"_shed", func() uint64 { return ls.Shed[l] })
	}
	reg.Counter("backpressured", func() uint64 { return ls.Backpressured })
	reg.Gauge("lane_backlog", func() float64 { return float64(ls.backlog(NumLanes)) })
}

// cap returns the lane's queue bound (0 = unbounded).
func (ls *LaneSched) cap(l Lane) int {
	switch l {
	case LaneData:
		return ls.cfg.DataCap
	case LaneTelemetry:
		return ls.cfg.TelemetryCap
	}
	return 0 // control: never bounded
}

// backlog sums queue depths of lanes strictly above limit priority
// (pass NumLanes for the total backlog).
func (ls *LaneSched) backlog(limit Lane) int {
	n := 0
	for l := Lane(0); l < limit; l++ {
		n += ls.queues[l].depth()
	}
	return n
}

// Offer implements core.LaneDispatcher: route one admitted wire message
// through its class's lane. Called on the node's engine.
func (ls *LaneSched) Offer(m actor.Msg) {
	lane := laneOf(Class(m.Class))
	if c := ls.cap(lane); c > 0 && ls.queues[lane].depth() >= c {
		switch lane {
		case LaneTelemetry:
			// Watermark action: shed. Telemetry is lossy by contract.
			ls.Shed[lane]++
			ls.chk.LaneShed(ls.label, uint8(lane), lane == LaneControl)
			if ls.sink != nil {
				ls.sink.Instant(ls.tracks[lane], "shed", ls.eng.Now())
			}
			return
		default:
			// Watermark action: backpressure. The message is deferred and
			// re-offered; data is never dropped.
			ls.Backpressured++
			if ls.sink != nil {
				ls.sink.Instant(ls.tracks[lane], "backpressure", ls.eng.Now())
			}
			ls.eng.After(ls.cfg.BackpressureDelay, func() { ls.Offer(m) })
			return
		}
	}
	ls.queues[lane].push(m)
	ls.Enqueued[lane]++
	ls.chk.LaneEnqueue(ls.label, uint8(lane))
	if !ls.pumping {
		ls.pumping = true
		ls.pump()
	}
}

// pump dispatches the head of the highest-priority non-empty lane, then
// stays busy for the dispatch cost before looking again. The busy window
// is held even when the delivery empties the queues — a message arriving
// inside it queues behind the in-flight dispatch, which is what lets
// sub-DispatchCost arrival bursts build backlog and trip the watermarks.
func (ls *LaneSched) pump() {
	var lane Lane
	for lane = 0; lane < NumLanes; lane++ {
		if ls.queues[lane].depth() > 0 {
			break
		}
	}
	if lane == NumLanes {
		ls.pumping = false
		return
	}
	m := ls.queues[lane].pop()
	ls.Delivered[lane]++
	// Strict priority: when this delivery happens, every higher lane
	// must already be empty.
	ls.chk.LaneDeliver(ls.label, uint8(lane), ls.backlog(lane))
	ls.deliver(m)
	ls.eng.After(ls.cfg.DispatchCost, ls.pump)
}
