package sim

import (
	"fmt"
	"testing"
)

// refEvent mirrors one scheduled event in the reference model.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refModel is the reference scheduler both queue tiers are checked
// against: a flat slice of pending events with O(n) pop-min over
// (at, seq). It is obviously correct and shares no code with the wheel
// or the heap.
type refModel struct {
	events []refEvent
	now    Time
	seq    uint64
}

func (m *refModel) push(at Time, id int) {
	m.events = append(m.events, refEvent{at: at, seq: m.seq, id: id})
	m.seq++
}

// popMin removes and returns the earliest pending event at or before
// deadline, advancing the clock to it; ok is false when there is none.
func (m *refModel) popMin(deadline Time) (ev refEvent, ok bool) {
	best := -1
	for i, r := range m.events {
		if r.at <= deadline && (best < 0 || r.at < m.events[best].at ||
			(r.at == m.events[best].at && r.seq < m.events[best].seq)) {
			best = i
		}
	}
	if best < 0 {
		return refEvent{}, false
	}
	ev = m.events[best]
	m.events[best] = m.events[len(m.events)-1]
	m.events = m.events[:len(m.events)-1]
	m.now = ev.at
	return ev, true
}

// runUntil pops every event at or before deadline, then moves the clock
// to deadline, and returns the ids in firing order.
func (m *refModel) runUntil(deadline Time) []int {
	var ids []int
	for ev, ok := m.popMin(deadline); ok; ev, ok = m.popMin(deadline) {
		ids = append(ids, ev.id)
	}
	m.now = max(m.now, deadline)
	return ids
}

// probeDelays are the distances from now that reach both tiers and the
// boundary between them: the current instant, near slots, the last
// near slot, the first far time and beyond.
var probeDelays = []Time{0, 1, 700, wheelSpan - 1, wheelSpan, wheelSpan + 1, 9000, 20000}

// probeDelay draws one of probeDelays, or any distance below the span.
func probeDelay(rng *Rand) Time {
	if k := rng.Intn(len(probeDelays) + 1); k < len(probeDelays) {
		return probeDelays[k]
	}
	return Time(rng.Intn(wheelSpan))
}

// queueHarness drives an engine and the reference model through the
// same operations and fails the test at the first divergence.
type queueHarness struct {
	t      *testing.T
	name   string
	e      *Engine
	m      refModel
	got    []int
	nextID int
}

func newQueueHarness(t *testing.T, name string) *queueHarness {
	return &queueHarness{t: t, name: name, e: NewEngine(1)}
}

// schedule adds one event at at on both sides.
func (h *queueHarness) schedule(at Time) {
	id := h.nextID
	h.nextID++
	h.m.push(at, id)
	h.e.At(at, func() { h.got = append(h.got, id) })
}

// step runs Step on both sides.
func (h *queueHarness) step() {
	before := len(h.got)
	var want []int
	if ev, ok := h.m.popMin(MaxTime); ok {
		want = []int{ev.id}
	}
	h.e.Step()
	h.check("Step", want, before)
}

// runUntil runs RunUntil(deadline) on both sides.
func (h *queueHarness) runUntil(deadline Time) {
	before := len(h.got)
	want := h.m.runUntil(deadline)
	h.e.RunUntil(deadline)
	h.check("RunUntil", want, before)
}

// check compares what the engine executed since before, its clock and
// its pending count with the reference.
func (h *queueHarness) check(what string, want []int, before int) {
	h.t.Helper()
	fired := h.got[before:]
	same := len(fired) == len(want)
	for i := 0; same && i < len(want); i++ {
		same = fired[i] == want[i]
	}
	if !same {
		h.t.Fatalf("%s: %s executed %v, reference %v", h.name, what, fired, want)
	}
	if h.e.Now() != h.m.now || h.e.Pending() != len(h.m.events) {
		h.t.Fatalf("%s: after %s clock %v with %d pending, reference %v with %d",
			h.name, what, h.e.Now(), h.e.Pending(), h.m.now, len(h.m.events))
	}
}

// drain runs both sides to empty.
func (h *queueHarness) drain() {
	h.runUntil(MaxTime - 1)
	if h.e.Step() {
		h.t.Fatalf("%s: engine still has events after the reference drained", h.name)
	}
}

// TestEventQueuePropertyVsReference drives the engine through
// randomized schedule/step/RunUntil interleavings and checks every
// execution against the reference model, for 200 seeds. Delays straddle
// the wheel's span, times already scheduled are reused so that near
// pushes tie with migrated far events, and RunUntil jumps the clock
// over empty stretches, which must migrate the far events it brings
// into range.
func TestEventQueuePropertyVsReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := NewRand(seed * 0x9e3779b97f4a7c15)
		h := newQueueHarness(t, fmt.Sprintf("seed %d", seed))
		var anchors []Time // times scheduled so far, reused to force ties
		schedule := func() {
			now := h.e.Now()
			at := now + probeDelay(rng)
			switch rng.Intn(8) {
			case 0: // one of the last few times scheduled, if still ahead
				if n := len(anchors); n > 0 {
					if a := anchors[n-1-rng.Intn(min(n, 32))]; a >= now {
						at = a
					}
				}
			case 1:
				at = now + wheelSpan // a tie on the boundary
			}
			anchors = append(anchors, at)
			h.schedule(at)
		}
		runUntil := func() {
			h.runUntil(h.e.Now() + probeDelay(rng) + Time(rng.Intn(3))*wheelSpan)
		}

		// Mixed traffic, then bursts — many pushes per pop, so both tiers
		// fill with same-instant ties — then a drain to empty.
		for op := 0; op < 600; op++ {
			switch r := rng.Intn(100); {
			case r < 55:
				schedule()
			case r < 90:
				h.step()
			default:
				runUntil()
			}
		}
		for round := 0; round < 3; round++ {
			for i := 0; i < 60; i++ {
				schedule()
			}
			runUntil()
			for i := 0; i < 10; i++ {
				h.step()
			}
		}
		h.drain()
	}
}

// FuzzEngineSchedule decodes bytes into schedule, Step and RunUntil
// operations and checks every execution against the reference model.
// An operation is one byte: its low two bits pick the kind (0 and 1
// schedule, 2 steps, 3 runs until a deadline), the next three pick a
// probe delay, and the top three add 0–7 ns to a scheduled time (so
// times repeat and tie) or 0–7 wheel spans to a deadline.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x10, 0x14, 0x03, 0x0c, 0x02, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		h := newQueueHarness(t, "FuzzEngineSchedule")
		for _, b := range data {
			d, extra := probeDelays[b>>2&7], Time(b>>5)
			switch b & 3 {
			case 0, 1:
				h.schedule(h.e.Now() + d + extra)
			case 2:
				h.step()
			case 3:
				h.runUntil(h.e.Now() + d + extra*wheelSpan)
			}
		}
		h.drain()
	})
}

// TestEngineOrderingMatchesReference replays one randomized program on
// the engine and on the reference model and requires identical firing
// orders, for 200 seeds: events schedule their successors from inside
// their callbacks at delays on both sides of the wheel's span, and the
// run advances in RunUntil jumps, each followed by a new root, before
// it drains.
func TestEngineOrderingMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := NewRand(seed)
		// Event id's callback schedules one successor per entry of
		// kids[id], at those delays.
		const n = 600
		kids := make([][]Time, n)
		for i := range kids {
			for k := rng.Intn(3); k > 0; k-- {
				kids[i] = append(kids[i], probeDelay(rng))
			}
		}
		var roots []Time
		for i := 0; i < 16; i++ {
			roots = append(roots, probeDelay(rng))
		}
		var jumps []Time
		for i := 0; i < 8; i++ {
			jumps = append(jumps, probeDelay(rng)+Time(rng.Intn(3))*wheelSpan)
		}

		e := NewEngine(1)
		var got []int
		nextID := 0
		var push func(at Time)
		push = func(at Time) {
			id := nextID
			nextID++
			e.At(at, func() {
				got = append(got, id)
				if id < n {
					for _, d := range kids[id] {
						push(e.Now() + d)
					}
				}
			})
		}

		m := &refModel{}
		var want []int
		refID := 0
		fire := func(ev refEvent) {
			want = append(want, ev.id)
			if ev.id < n {
				for _, d := range kids[ev.id] {
					m.push(m.now+d, refID)
					refID++
				}
			}
		}
		refRunUntil := func(deadline Time) {
			for ev, ok := m.popMin(deadline); ok; ev, ok = m.popMin(deadline) {
				fire(ev)
			}
			m.now = max(m.now, deadline)
		}

		for _, d := range roots {
			push(d)
			m.push(d, refID)
			refID++
		}
		for k, j := range jumps {
			e.RunUntil(e.Now() + j)
			refRunUntil(m.now + j)
			// A root scheduled right after the jump, which may tie with a
			// far event the jump brought into range.
			push(e.Now() + roots[k])
			m.push(m.now+roots[k], refID)
			refID++
		}
		e.Run()
		refRunUntil(MaxTime)

		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: order diverges at %d: got %d want %d", seed, i, got[i], want[i])
			}
		}
	}
}
