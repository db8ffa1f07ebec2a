package msgring

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/pcie"
	"repro/internal/sim"
)

// A differential test of Channel against a model made of plain slices:
// each direction is the list of messages accepted, how much of it has
// been handed to the DMA engine or written locally, how much the consumer
// has taken, and the producer's credit view, which lags by the lazy
// half-ring sync.
//
// DMA transfers queued on the one engine need not land in issue order: a
// transfer's fixed latency beyond its byte time grows with its size
// (1.25 ns/B of read latency against 0.48 ns/B of transfer on the CN2350),
// so a small read issued behind a large one can land first. A flush that
// lands early only waits for the slots before it — the consumer stops at
// the first slot not yet written — so the model knows exactly what
// HostPoll sees whenever no flush is in flight, and otherwise only that
// it is the next messages in order. NIC reads hand over their batches
// when they land, so the model matches each batch to the read it came
// from, in whatever order they land.

// dirModel is one direction of the channel.
type dirModel struct {
	slots   int
	msgs    []Message // accepted, in push order
	written int       // msgs[:written] are flushed (NIC→host) or stored (host→NIC)
	taken   int       // msgs[:taken] have been consumed
	synced  int       // taken, as last synced to the producer
	syncs   uint64
}

// free is the producer's view of free slots.
func (d *dirModel) free() int { return d.slots - (len(d.msgs) - d.synced) }

// take consumes the next k messages, returns them, and syncs the
// producer's credits once half the ring has been consumed since the last
// sync.
func (d *dirModel) take(k int) (got []Message, synced bool) {
	from := d.taken
	d.taken += k
	if c := d.taken - d.synced; c > 0 && c >= d.slots/2 {
		d.synced = d.taken
		d.syncs++
		synced = true
	}
	return d.msgs[from:d.taken], synced
}

// opStream decodes channel operations from a byte string; an exhausted
// stream reads as zeros.
type opStream struct{ p []byte }

func (s *opStream) more() bool { return len(s.p) > 0 }

func (s *opStream) u8() int {
	if len(s.p) == 0 {
		return 0
	}
	b := s.p[0]
	s.p = s.p[1:]
	return int(b)
}

// runChannelOps drives a Channel and the model through the operations
// data encodes — the first two bytes pick the ring size (1 to 64 slots)
// and the batch size (1 to 6) — failing t at the first difference, and
// returns how many it ran. At the end everything pushed is flushed,
// landed and drained: every message must have been delivered exactly
// once, in push order to the host, and to the NIC in push order within
// each read's batch.
func runChannelOps(t testing.TB, data []byte) int {
	in := &opStream{p: data}
	slots, batch := 1<<(in.u8()%7), 1+in.u8()%6
	eng, ch := newChannel(slots, batch)
	toHost, toNIC := &dirModel{slots: slots}, &dirModel{slots: slots}
	var (
		pending    int         // NIC→host messages pushed since the last flush
		flights    int         // flushes issued that have not landed
		reads      [][]Message // non-empty NIC reads in flight: what each delivers
		emptyReads int         // empty NIC polls whose callback has not run
		nicReady   int         // OnNICReady calls
		step       int         // the operation being run
		seq        uint32      // DstActor of the next message pushed
	)
	ch.OnHostReady = func() {
		if flights == 0 {
			t.Fatalf("step %d: a flush landed that the model never issued", step)
		}
		flights--
	}
	ch.OnNICReady = func() { nicReady++ }
	deliver := func(ms []Message) {
		if len(ms) == 0 {
			if emptyReads == 0 {
				t.Fatalf("step %d: an empty NIC read landed that the model never issued", step)
			}
			emptyReads--
			return
		}
		for i, r := range reads {
			if r[0].DstActor == ms[0].DstActor {
				sameBatch(t, step, "NICPoll callback", ms, r)
				reads = append(reads[:i], reads[i+1:]...)
				return
			}
		}
		t.Fatalf("step %d: a NIC read delivered message #%d, which no read in flight holds", step, ms[0].DstActor)
	}
	message := func() Message {
		m := Message{Kind: uint16(in.u8()), DstActor: seq, Data: make([]byte, in.u8()%40)}
		for i := range m.Data {
			m.Data[i] = byte(int(seq) + i)
		}
		seq++
		return m
	}
	issueFlush := func() sim.Time {
		if pending == 0 {
			return 0
		}
		toHost.written += pending
		pending = 0
		flights++
		return pcie.IssueOccupancy
	}
	hostPoll := func(n int) {
		got, cost := ch.HostPoll(n)
		k, ready := len(got), min(n, toHost.written-toHost.taken)
		if k > ready || flights == 0 && k != ready {
			t.Fatalf("step %d: HostPoll(%d) returned %d messages with %d flushed and %d flushes in flight",
				step, n, k, ready, flights)
		}
		want, synced := toHost.take(k)
		sameBatch(t, step, "HostPoll", got, want)
		wantCost := sim.Time(len(want)) * 80 * sim.Nanosecond
		if synced {
			wantCost += 40 * sim.Nanosecond
		}
		if cost != wantCost {
			t.Fatalf("step %d: HostPoll(%d) cost %v; model %v", step, n, cost, wantCost)
		}
	}
	nicPoll := func(n int) {
		cost := ch.NICPoll(n, deliver)
		want, _ := toNIC.take(min(n, toNIC.written-toNIC.taken))
		wantCost := pcie.IssueOccupancy
		if len(want) == 0 {
			emptyReads++
			wantCost = 30 * sim.Nanosecond
		} else {
			reads = append(reads, want)
		}
		if cost != wantCost {
			t.Fatalf("step %d: NICPoll(%d) cost %v; model %v", step, n, cost, wantCost)
		}
	}
	check := func() {
		for _, d := range []struct {
			name string
			r    *Ring
			m    *dirModel
		}{{"toHost", ch.ToHost(), toHost}, {"toNIC", ch.ToNIC(), toNIC}} {
			if d.r.Pushed != uint64(len(d.m.msgs)) || d.r.head != d.m.taken || d.r.CreditSyncs != d.m.syncs {
				t.Fatalf("step %d: %s Pushed/head/CreditSyncs = %d/%d/%d; model %d/%d/%d", step, d.name,
					d.r.Pushed, d.r.head, d.r.CreditSyncs, len(d.m.msgs), d.m.taken, d.m.syncs)
			}
			if free := d.r.freeFromProducer(); free < 0 || free != d.m.free() {
				t.Fatalf("step %d: %s free credit %d; model %d", step, d.name, free, d.m.free())
			}
		}
		if ch.CreditMessages != toHost.syncs+toNIC.syncs {
			t.Fatalf("step %d: CreditMessages = %d; model %d", step, ch.CreditMessages, toHost.syncs+toNIC.syncs)
		}
		if ch.freeFlushes.Len() > maxFreeFlushes || ch.freeReads.Len() > maxFreeReads {
			t.Fatalf("step %d: free lists hold %d flushes and %d reads, caps %d and %d", step,
				ch.freeFlushes.Len(), ch.freeReads.Len(), maxFreeFlushes, maxFreeReads)
		}
	}

	for in.more() {
		step++
		switch in.u8() % 8 {
		case 0, 1:
			m := message()
			cost, err := ch.NICPush(m)
			if toHost.free() <= 0 {
				if err != errRingFull {
					t.Fatalf("step %d: NICPush into a full ring = %v, want errRingFull", step, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: NICPush = %v with %d credits", step, err, toHost.free())
			}
			toHost.msgs = append(toHost.msgs, m)
			pending++
			want := 50 * sim.Nanosecond
			if pending >= batch {
				want += issueFlush()
			}
			if cost != want {
				t.Fatalf("step %d: NICPush cost %v; model %v", step, cost, want)
			}
		case 2:
			if cost, want := ch.Flush(), issueFlush(); cost != want {
				t.Fatalf("step %d: Flush cost %v; model %v", step, cost, want)
			}
		case 3:
			hostPoll(in.u8() % 9)
		case 4, 5:
			m := message()
			cost, err := ch.HostPush(m)
			if toNIC.free() <= 0 {
				if err != errRingFull {
					t.Fatalf("step %d: HostPush into a full ring = %v, want errRingFull", step, err)
				}
				break
			}
			if err != nil || cost != 60*sim.Nanosecond {
				t.Fatalf("step %d: HostPush = %v, %v with %d credits", step, cost, err, toNIC.free())
			}
			toNIC.msgs = append(toNIC.msgs, m)
			toNIC.written++ // host writes are local stores: ready at once
		case 6:
			nicPoll(in.u8() % 9)
		case 7:
			if d := in.u8(); d == 255 {
				eng.Run()
			} else {
				eng.RunUntil(eng.Now() + sim.Time(d)*20*sim.Nanosecond)
			}
		}
		check()
	}

	step++
	ch.Flush()
	issueFlush()
	eng.Run()
	for toHost.taken < len(toHost.msgs) || toNIC.taken < len(toNIC.msgs) {
		before := toHost.taken + toNIC.taken
		hostPoll(64)
		nicPoll(64)
		eng.Run()
		check()
		if toHost.taken+toNIC.taken == before {
			t.Fatalf("draining: stuck with %d/%d to the host and %d/%d to the NIC consumed", toHost.taken,
				len(toHost.msgs), toNIC.taken, len(toNIC.msgs))
		}
	}
	eng.Run()
	if flights != 0 || len(reads) != 0 || emptyReads != 0 {
		t.Fatalf("after draining: %d flushes, %d reads and %d empty reads never landed", flights, len(reads), emptyReads)
	}
	if nicReady != len(toNIC.msgs) {
		t.Fatalf("OnNICReady fired %d times for %d host pushes", nicReady, len(toNIC.msgs))
	}
	return step
}

// sameBatch fails t unless got holds exactly the messages of want.
func sameBatch(t testing.TB, step int, op string, got, want []Message) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: %s returned %d messages; model %d", step, op, len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.DstActor != w.DstActor || g.Kind != w.Kind || !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("step %d: %s message %d is #%d kind %d (%d B); model #%d kind %d (%d B)", step, op, i,
				g.DstActor, g.Kind, len(g.Data), w.DstActor, w.Kind, len(w.Data))
		}
	}
}

// TestChannelMatchesModel drives the channel and the model through the
// same ≥ 10⁵ seeded random operations, over every ring size from 1 to 64
// slots and batch sizes 1 to 6: same messages, same costs, same counters,
// same credits.
func TestChannelMatchesModel(t *testing.T) {
	steps := 0
	rng := rand.New(rand.NewSource(1))
	for log := 0; log < 7; log++ {
		for batch := 1; batch <= 6; batch++ {
			data := make([]byte, 8<<10)
			rng.Read(data)
			data[0], data[1] = byte(log), byte(batch-1)
			steps += runChannelOps(t, data)
		}
	}
	if steps < 100_000 {
		t.Fatalf("only %d steps", steps)
	}
}

// FuzzChannelOps: any byte string, read as channel operations, leaves the
// channel and the model in agreement.
func FuzzChannelOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 1, 3, 1, 2, 5, 2, 7, 255, 3, 8, 4, 9, 4, 5, 10, 0, 6, 1, 6, 8, 7, 255})
	f.Fuzz(func(t *testing.T, data []byte) { runChannelOps(t, data) })
}
