package msgring

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/invariant"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/spec"
)

func newChannel(slots, batch int) (*sim.Engine, *Channel) {
	eng := sim.NewEngine(1)
	dma := pcie.New(eng, spec.LiquidIOII_CN2350().DMA)
	return eng, NewChannel(eng, dma, slots, batch)
}

func TestNICToHostFIFO(t *testing.T) {
	eng, ch := newChannel(64, 1)
	for i := 0; i < 10; i++ {
		if _, err := ch.NICPush(Message{Kind: uint16(i), Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	msgs, _ := ch.HostPoll(100)
	if len(msgs) != 10 {
		t.Fatalf("polled %d, want 10", len(msgs))
	}
	for i, m := range msgs {
		if int(m.Kind) != i || m.Data[0] != byte(i) {
			t.Fatalf("out of order at %d: %+v", i, m)
		}
	}
}

func TestMessagesInvisibleUntilDMACompletes(t *testing.T) {
	eng, ch := newChannel(64, 1)
	ch.NICPush(Message{Kind: 1})
	// Before the engine runs, the DMA write has not landed.
	if msgs, _ := ch.HostPoll(10); len(msgs) != 0 {
		t.Fatal("message visible before DMA completion")
	}
	eng.Run()
	if msgs, _ := ch.HostPoll(10); len(msgs) != 1 {
		t.Fatal("message not visible after DMA completion")
	}
}

func TestBatchingFlushesAtBatchSize(t *testing.T) {
	eng, ch := newChannel(64, 4)
	for i := 0; i < 3; i++ {
		ch.NICPush(Message{Kind: uint16(i)})
	}
	eng.Run()
	if msgs, _ := ch.HostPoll(10); len(msgs) != 0 {
		t.Fatal("batch flushed early")
	}
	ch.NICPush(Message{Kind: 3}) // 4th triggers flush
	eng.Run()
	if msgs, _ := ch.HostPoll(10); len(msgs) != 4 {
		t.Fatalf("after flush polled %d, want 4", len(msgs))
	}
}

func TestExplicitFlush(t *testing.T) {
	eng, ch := newChannel(64, 16)
	ch.NICPush(Message{Kind: 9})
	ch.Flush()
	eng.Run()
	if msgs, _ := ch.HostPoll(10); len(msgs) != 1 {
		t.Fatal("explicit flush did not deliver")
	}
	// Flushing an empty channel is a no-op.
	if cost := ch.Flush(); cost != 0 {
		t.Fatalf("empty flush cost %v", cost)
	}
}

func TestRingFullBackpressure(t *testing.T) {
	_, ch := newChannel(8, 1)
	for i := 0; i < 8; i++ {
		if _, err := ch.NICPush(Message{}); err != nil {
			t.Fatalf("push %d failed: %v", i, err)
		}
	}
	if _, err := ch.NICPush(Message{}); err != errRingFull {
		t.Fatalf("9th push err = %v, want errRingFull", err)
	}
}

func TestLazyCreditSync(t *testing.T) {
	eng, ch := newChannel(8, 1)
	// Fill, drain fully, then push again: without credit sync the
	// producer would believe the ring is still full; with lazy sync at
	// half-ring it has fresh credits.
	for i := 0; i < 8; i++ {
		ch.NICPush(Message{})
	}
	eng.Run()
	msgs, _ := ch.HostPoll(8)
	if len(msgs) != 8 {
		t.Fatalf("drained %d", len(msgs))
	}
	if ch.ToHost().CreditSyncs == 0 {
		t.Fatal("no credit sync after draining a full ring")
	}
	if _, err := ch.NICPush(Message{}); err != nil {
		t.Fatalf("push after credit sync failed: %v", err)
	}
}

func TestCreditSyncIsLazyNotEager(t *testing.T) {
	eng, ch := newChannel(16, 1)
	for i := 0; i < 3; i++ {
		ch.NICPush(Message{})
	}
	eng.Run()
	ch.HostPoll(3) // below half ring (8): no sync yet
	if ch.ToHost().CreditSyncs != 0 {
		t.Fatal("credit sync fired below the half-ring threshold")
	}
}

func TestChecksumGuardsPartialWrites(t *testing.T) {
	eng, ch := newChannel(16, 1)
	ch.NICPush(Message{Data: []byte("payload")})
	eng.Run()
	corrupt(ch.ToHost(), 0)
	msgs, _ := ch.HostPoll(10)
	if len(msgs) != 0 {
		t.Fatal("corrupted message was delivered")
	}
	if ch.ToHost().ChecksumDrops == 0 {
		t.Fatal("checksum defense did not fire")
	}
}

func TestHostToNICRoundTrip(t *testing.T) {
	eng, ch := newChannel(64, 1)
	for i := 0; i < 5; i++ {
		if _, err := ch.HostPush(Message{Kind: uint16(i), Data: []byte(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	var got []Message
	ch.NICPoll(10, func(ms []Message) { got = append(got, ms...) })
	eng.Run()
	if len(got) != 5 {
		t.Fatalf("NIC polled %d, want 5", len(got))
	}
	for i, m := range got {
		if int(m.Kind) != i {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestNICPollEmptyStillCallsBack(t *testing.T) {
	eng, ch := newChannel(16, 1)
	called := false
	ch.NICPoll(4, func(ms []Message) {
		called = true
		if len(ms) != 0 {
			t.Errorf("expected an empty batch, got %v", ms)
		}
	})
	eng.Run()
	if !called {
		t.Fatal("empty poll should still call back")
	}
}

func TestNICPushCostIncludesFlushAtBatchBoundary(t *testing.T) {
	_, ch := newChannel(64, 2)
	c1, _ := ch.NICPush(Message{})
	c2, _ := ch.NICPush(Message{}) // triggers flush
	if c2 <= c1 {
		t.Fatalf("flush-triggering push cost %v should exceed plain push %v", c2, c1)
	}
}

func TestRingCapacityValidation(t *testing.T) {
	for _, capn := range []int{0, -1, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d did not panic", capn)
				}
			}()
			newRing(capn)
		}()
	}
}

func TestWireSize(t *testing.T) {
	m := Message{Data: make([]byte, 100)}
	if m.WireSize() != HeaderBytes+100 {
		t.Fatalf("WireSize = %d", m.WireSize())
	}
}

// Property: any interleaving of pushes and full drains preserves count
// and FIFO order, and never duplicates or loses messages.
func TestPushPopProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		eng, ch := newChannel(32, 1)
		next, want := 0, 0
		for _, op := range ops {
			if op%3 != 0 { // two thirds pushes
				if _, err := ch.NICPush(Message{Kind: uint16(next)}); err == nil {
					next++
				}
			} else {
				eng.Run()
				msgs, _ := ch.HostPoll(32)
				for _, m := range msgs {
					if int(m.Kind) != want {
						return false
					}
					want++
				}
			}
		}
		eng.Run()
		for {
			msgs, _ := ch.HostPoll(32)
			if len(msgs) == 0 {
				break
			}
			for _, m := range msgs {
				if int(m.Kind) != want {
					return false
				}
				want++
			}
		}
		return want == next
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadyCallbacksFire(t *testing.T) {
	eng, ch := newChannel(32, 2)
	hostReady, nicReady := 0, 0
	ch.OnHostReady = func() { hostReady++ }
	ch.OnNICReady = func() { nicReady++ }
	ch.NICPush(Message{Kind: 1})
	ch.NICPush(Message{Kind: 2}) // triggers the batch flush
	eng.Run()
	if hostReady != 1 {
		t.Fatalf("OnHostReady fired %d times, want once per flush", hostReady)
	}
	ch.HostPush(Message{Kind: 3})
	eng.Run()
	if nicReady != 1 {
		t.Fatalf("OnNICReady fired %d times", nicReady)
	}
}

// Drive a ring through ≥4 full wraps at capacity with uneven drain
// chunk sizes, crossing the half-ring credit boundary at every offset:
// FIFO order must hold, nothing may be lost or duplicated, and the
// producer's stale credit view may never lag by more than half a ring —
// after a full drain it must accept at least slots/2 pushes (the lazy
// half-ring sync liveness contract).
func TestWrapBoundaryCreditAccounting(t *testing.T) {
	const slots = 8
	const total = slots * 6 // ≥ 4 full wraps of the buffer
	eng, ch := newChannel(slots, 1)
	next, want := 0, 0
	chunks := []int{3, 1, 8, 2, 5, 4, 7, 6} // uneven drains hit every boundary offset
	for iter := 0; next < total; iter++ {
		// Fill until the producer's credit view says full.
		filled := 0
		for {
			if _, err := ch.NICPush(Message{Kind: uint16(next)}); err != nil {
				break
			}
			next++
			filled++
		}
		if filled < slots/2 {
			t.Fatalf("iteration %d: only %d credits after a full drain (sync lagged past half ring)", iter, filled)
		}
		eng.Run()
		for want < next {
			n := chunks[(want+iter)%len(chunks)]
			msgs, _ := ch.HostPoll(n)
			if len(msgs) == 0 {
				t.Fatalf("iteration %d: poll returned nothing with %d queued", iter, next-want)
			}
			for _, m := range msgs {
				if int(m.Kind) != want {
					t.Fatalf("iteration %d: got kind %d, want %d (FIFO broken across wrap)", iter, m.Kind, want)
				}
				want++
			}
		}
	}
	if want != next {
		t.Fatalf("drained %d of %d pushed", want, next)
	}
	r := ch.ToHost()
	if r.Pushed != uint64(next) || r.Popped != uint64(want) {
		t.Fatalf("counters Pushed=%d Popped=%d, want %d", r.Pushed, r.Popped, next)
	}
	// Lazy sync economics: a sync needs at least half a ring consumed, so
	// the count is bounded by consumed/(slots/2) and must be well below
	// one per message.
	maxSyncs := uint64(want / (slots / 2))
	if r.CreditSyncs < 4 || r.CreditSyncs > maxSyncs {
		t.Fatalf("CreditSyncs=%d outside [4, %d]", r.CreditSyncs, maxSyncs)
	}
}

// Regression: with a capacity-1 ring, half-ring is 0 and the unguarded
// threshold fired a credit sync (and billed its doorbell cost) on every
// poll — even empty ones that consumed nothing.
func TestCapacityOneRingNoSpuriousCreditSync(t *testing.T) {
	eng, ch := newChannel(1, 1)
	for i := 0; i < 5; i++ {
		ch.HostPoll(4) // empty polls: nothing consumed, nothing to sync
	}
	if n := ch.ToHost().CreditSyncs; n != 0 {
		t.Fatalf("empty polls fired %d credit syncs", n)
	}
	if ch.CreditMessages != 0 {
		t.Fatalf("empty polls sent %d credit messages", ch.CreditMessages)
	}
	// Real traffic still syncs: consume the single slot and the producer
	// must get its credit back.
	for i := 0; i < 3; i++ {
		if _, err := ch.NICPush(Message{Kind: uint16(i)}); err != nil {
			t.Fatalf("push %d: %v (credit never returned)", i, err)
		}
		eng.Run()
		msgs, _ := ch.HostPoll(1)
		if len(msgs) != 1 || int(msgs[0].Kind) != i {
			t.Fatalf("poll %d returned %v", i, msgs)
		}
	}
	if ch.ToHost().CreditSyncs != 3 {
		t.Fatalf("CreditSyncs=%d, want one per consumed message", ch.ToHost().CreditSyncs)
	}
}

func TestAppHandleSurvivesRing(t *testing.T) {
	eng, ch := newChannel(16, 1)
	type payload struct{ v int }
	ch.NICPush(Message{Kind: 5, App: &payload{v: 42}})
	eng.Run()
	msgs, _ := ch.HostPoll(4)
	if len(msgs) != 1 {
		t.Fatal("no message")
	}
	p, ok := msgs[0].App.(*payload)
	if !ok || p.v != 42 {
		t.Fatalf("App handle lost: %v", msgs[0].App)
	}
}

// TestRingPathAllocFree: once the channel has made its records, a message
// crossing in either direction — push, flush or read, DMA transfer, poll
// — allocates nothing, with two NIC reads in flight at once, each
// delivering its own batch. (The second, smaller read lands first: a
// read's latency beyond its byte time grows with its size.)
func TestRingPathAllocFree(t *testing.T) {
	eng, ch := newChannel(64, 4)
	data := make([]byte, 32)
	var toHost, toNIC, hostGot, nicGot uint32
	ch.OnHostReady = func() {
		for {
			ms, _ := ch.HostPoll(64)
			if len(ms) == 0 {
				return
			}
			for i := range ms {
				if ms[i].SrcActor != hostGot {
					t.Fatalf("host polled message %d, want %d", ms[i].SrcActor, hostGot)
				}
				hostGot++
			}
		}
	}
	var batches [][2]int // each batch of a round: its first message, relative to the round's end, and its length
	deliver := func(ms []Message) {
		batches = append(batches, [2]int{int(ms[0].SrcActor) - int(toNIC), len(ms)})
		for i := range ms {
			if ms[i].SrcActor != ms[0].SrcActor+uint32(i) {
				t.Fatalf("NIC read batch %v is not consecutive", ms)
			}
		}
		nicGot += uint32(len(ms))
	}
	round := func() {
		batches = batches[:0]
		for i := 0; i < 6; i++ {
			if _, err := ch.NICPush(Message{SrcActor: toHost, Data: data}); err != nil {
				t.Fatal(err)
			}
			toHost++
			if _, err := ch.HostPush(Message{SrcActor: toNIC, Data: data}); err != nil {
				t.Fatal(err)
			}
			toNIC++
		}
		ch.Flush()
		ch.NICPoll(4, deliver)
		ch.NICPoll(4, deliver) // issued while the first read is in flight
		eng.Run()
	}
	round() // make the records, grow the batches
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("a round of 12 ring crossings allocates %.2f, want 0", got)
	}
	if hostGot != toHost || nicGot != toNIC {
		t.Fatalf("delivered %d/%d to the host and %d/%d to the NIC", hostGot, toHost, nicGot, toNIC)
	}
	// Relative to the round's end: the first read took the oldest four
	// messages, the second the last two.
	first, second := [2]int{-6, 4}, [2]int{-2, 2}
	if len(batches) != 2 || batches[0] != second || batches[1] != first {
		t.Fatalf("the two overlapping reads delivered %v, want %v then %v", batches, second, first)
	}
}

// TestRingRecordsPoisonedUnderChecker: with the invariant checker attached
// no flush or NIC read record is recycled, the traffic is the same, and a
// completion landing on a released record is reported and does nothing.
func TestRingRecordsPoisonedUnderChecker(t *testing.T) {
	eng, ch := newChannel(16, 2)
	chk := invariant.New(eng)
	ch.EnableInvariants(chk, "n")
	hostReady, delivered := 0, 0
	ch.OnHostReady = func() { hostReady++ }
	deliver := func(ms []Message) { delivered += len(ms) }
	for round := 0; round < 3; round++ {
		ch.NICPush(Message{Kind: 1})
		ch.NICPush(Message{Kind: 2}) // the batch flushes
		ch.HostPush(Message{Kind: 3})
		ch.NICPoll(4, deliver)
		ch.NICPoll(4, deliver) // empty
		eng.Run()
		if ms, _ := ch.HostPoll(4); len(ms) != 2 {
			t.Fatalf("round %d: host polled %d, want 2", round, len(ms))
		}
	}
	if hostReady != 3 || delivered != 3 {
		t.Fatalf("%d flushes landed and %d messages read, want 3 and 3", hostReady, delivered)
	}
	if ch.freeFlushes.Len()+ch.freeReads.Len() != 0 {
		t.Fatal("records were recycled under the checker")
	}
	if err := chk.Err(); err != nil {
		t.Fatalf("clean run reported %v", err)
	}

	f, r := ch.takeFlush(), ch.takeRead()
	r.done = deliver
	f.land() // each record's one completion releases it
	r.land()
	f.land() // and a second one lands on a released record
	r.land()
	if hostReady != 4 {
		t.Fatalf("OnHostReady fired %d times, want 4: a stale flush must not signal", hostReady)
	}
	vs := chk.Violations()
	if len(vs) != 2 || vs[0].Rule != "use-after-release" || vs[1].Rule != "use-after-release" {
		t.Fatalf("violations %v, want two use-after-release", vs)
	}
}

// corrupt flips a byte in the queued message at logical offset i from
// the consumer head, simulating a non-monotonic DMA write.
func corrupt(r *Ring, i int) {
	idx := (r.head + i) & r.mask
	if len(r.slots[idx].Data) > 0 {
		r.slots[idx].Data[0] ^= 0xff
	} else {
		r.slots[idx].checksum ^= 0xff
	}
}
