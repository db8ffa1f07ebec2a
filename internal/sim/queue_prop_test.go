package sim

import "testing"

// refEvent mirrors one scheduled event in the reference model.
type refEvent struct {
	at    Time
	seq   uint64
	id    int
	fired bool
}

// refModel is the reference scheduler the 4-ary heap is checked
// against: a flat slice with O(n) pop-min over (at, seq). It is
// obviously correct and shares no code with eventQueue.
type refModel struct {
	events []*refEvent
	now    Time
}

func (m *refModel) popMin() *refEvent {
	var best *refEvent
	for _, r := range m.events {
		if r.fired {
			continue
		}
		if best == nil || r.at < best.at || (r.at == best.at && r.seq < best.seq) {
			best = r
		}
	}
	if best != nil {
		best.fired = true
		m.now = best.at
	}
	return best
}

// TestEventQueuePropertyVsReference drives the engine through
// randomized push/pop interleavings — including bursts that deepen the
// heap faster than it drains — and checks every execution against the
// reference model, for 8 seeds.
func TestEventQueuePropertyVsReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := NewRand(seed * 0x9e3779b97f4a7c15)
		e := NewEngine(seed)
		m := &refModel{}
		var got []int
		nextID := 0
		var refSeq uint64

		schedule := func(horizon int) {
			at := e.Now() + Time(rng.Intn(horizon))
			id := nextID
			nextID++
			m.events = append(m.events, &refEvent{at: at, seq: refSeq, id: id})
			refSeq++
			e.At(at, func() { got = append(got, id) })
		}
		step := func() {
			want := m.popMin()
			before := len(got)
			ran := e.Step()
			if ran != (want != nil) {
				t.Fatalf("seed %d: Step() = %v but reference had pending = %v", seed, ran, want != nil)
			}
			if want == nil {
				return
			}
			if len(got) != before+1 || got[len(got)-1] != want.id {
				t.Fatalf("seed %d: executed %v, reference wanted event %d", seed, got[before:], want.id)
			}
			if e.Now() != want.at {
				t.Fatalf("seed %d: clock %v after event %d, reference %v", seed, e.Now(), want.id, want.at)
			}
		}

		// Phase 1: mixed traffic.
		for op := 0; op < 2000; op++ {
			if rng.Intn(100) < 60 {
				schedule(1000)
			} else {
				step()
			}
		}
		// Phase 2: bursts — many pushes per pop, so sift-down runs over
		// a deep heap with many same-instant ties.
		for round := 0; round < 4; round++ {
			for i := 0; i < 90; i++ {
				schedule(500)
			}
			for i := 0; i < 20; i++ {
				step()
			}
		}
		// Phase 3: drain both to empty and compare the full tail.
		for e.Step() {
			want := m.popMin()
			if want == nil || got[len(got)-1] != want.id {
				t.Fatalf("seed %d: drain diverged at %v", seed, got[len(got)-1])
			}
		}
		if left := m.popMin(); left != nil {
			t.Fatalf("seed %d: engine drained but reference still has event %d", seed, left.id)
		}
	}
}
