package qos

import (
	"repro/internal/actor"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// laneSched is one node's strict-priority lane front: wire messages are
// offered here after traffic-gate admission and before the FCFS/DRR
// actor scheduler. Lanes dispatch in priority order (control > data >
// telemetry), spaced by a fixed dispatch cost; per-lane watermarks
// trigger the RK-03 actions — shed telemetry, backpressure data, never
// touch control.
//
// All state changes happen on the owning node's engine, so a
// partitioned cluster runs one LaneSched per node with no shared state
// and byte-identical results at any worker count.
type laneSched struct {
	eng     *sim.Engine
	cfg     LaneConfig
	deliver func(actor.Msg)
	label   string

	queues  [NumLanes]actor.MsgFIFO
	pumping bool

	chk *invariant.Checker

	sink   *obs.Sink
	tracks [NumLanes]obs.TrackID

	// Per-lane counters (indexed by Lane).
	enqueued  [NumLanes]uint64
	delivered [NumLanes]uint64
	shed      [NumLanes]uint64
	// backpressured counts data-lane deferrals (the message is offered
	// again after backpressureDelay; it is never dropped).
	backpressured uint64
}

// newLaneSched builds a lane scheduler delivering into the node's actor
// scheduler, with its observers attached; label names the node in
// invariant reports. chk feeds every enqueue, delivery and shed into
// the lane-conservation ledger, audits deliveries for strict priority,
// and counts control sheds as violations. sink gets one trace track per
// lane in group g (named by Lane.String, so trace lanes, metric
// prefixes, and checker reports share the vocabulary); watermark
// actions emit instants. reg exposes the per-lane counters. Each
// observer may be nil.
func newLaneSched(eng *sim.Engine, cfg LaneConfig, label string, deliver func(actor.Msg),
	chk *invariant.Checker, sink *obs.Sink, g obs.GroupID, reg *obs.Registry) *laneSched {
	ls := &laneSched{
		eng:     eng,
		cfg:     cfg.withDefaults(),
		label:   label,
		deliver: deliver,
		chk:     chk,
		sink:    sink,
	}
	for l := Lane(0); l < NumLanes; l++ {
		ls.tracks[l] = sink.NewTrack(g, l.String())
	}
	if reg != nil {
		for l := Lane(0); l < NumLanes; l++ {
			reg.Counter(l.String()+"_enqueued", func() uint64 { return ls.enqueued[l] })
			reg.Counter(l.String()+"_delivered", func() uint64 { return ls.delivered[l] })
			reg.Counter(l.String()+"_shed", func() uint64 { return ls.shed[l] })
		}
		reg.Counter("backpressured", func() uint64 { return ls.backpressured })
		reg.Gauge("lane_backlog", func() float64 { return float64(ls.backlog(NumLanes)) })
	}
	return ls
}

// cap returns the lane's queue bound (0 = unbounded).
func (ls *laneSched) cap(l Lane) int {
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
func (ls *laneSched) backlog(limit Lane) int {
	n := 0
	for l := Lane(0); l < limit; l++ {
		n += ls.queues[l].Len()
	}
	return n
}

// Offer implements core.LaneDispatcher: route one admitted wire message
// through its class's lane. Called on the node's engine.
func (ls *laneSched) Offer(m actor.Msg) {
	lane := laneOf(Class(m.Class))
	if c := ls.cap(lane); c > 0 && ls.queues[lane].Len() >= c {
		switch lane {
		case LaneTelemetry:
			// Watermark action: shed. Telemetry is lossy by contract.
			ls.shed[lane]++
			ls.chk.LaneShed(ls.label, uint8(lane), lane == LaneControl)
			if ls.sink != nil {
				ls.sink.Instant(ls.tracks[lane], "shed", ls.eng.Now())
			}
			return
		default:
			// Watermark action: backpressure. The message is deferred and
			// re-offered; data is never dropped.
			ls.backpressured++
			if ls.sink != nil {
				ls.sink.Instant(ls.tracks[lane], "backpressure", ls.eng.Now())
			}
			ls.eng.After(backpressureDelay, func() { ls.Offer(m) })
			return
		}
	}
	ls.queues[lane].Push(m)
	ls.enqueued[lane]++
	ls.chk.LaneEnqueue()
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
func (ls *laneSched) pump() {
	var lane Lane
	for lane = 0; lane < NumLanes; lane++ {
		if ls.queues[lane].Len() > 0 {
			break
		}
	}
	if lane == NumLanes {
		ls.pumping = false
		return
	}
	m, _ := ls.queues[lane].Pop()
	ls.delivered[lane]++
	// Strict priority: when this delivery happens, every higher lane
	// must already be empty.
	ls.chk.LaneDeliver(ls.label, uint8(lane), ls.backlog(lane))
	ls.deliver(m)
	ls.eng.After(ls.cfg.DispatchCost, ls.pump)
}
