// Package msgring implements iPipe's host↔NIC communication channels
// (§3.5): per-channel pairs of unidirectional circular buffers resident
// in host memory. NIC cores write messages into the receive ring with
// batched non-blocking DMA writes (scatter-gather aggregated, I6); a
// host core polls it. The send ring works in reverse: the host writes
// locally and the NIC fetches with DMA reads.
//
// Two fidelity details from the paper are reproduced functionally:
//
//   - Lazy header-pointer synchronization: the consumer tells the
//     producer how far it has read only after consuming half the ring,
//     with a dedicated credit message (borrowed from FaRM).
//   - A 4-byte checksum in each message header guards against a DMA
//     engine writing message bytes non-monotonically; consumers verify
//     it and ignore slots whose checksum does not match.
package msgring

import (
	"errors"
	"hash/crc32"

	"repro/internal/invariant"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// HeaderBytes is the wire size of a message header: kind, source,
// destination actor IDs, length, and the 4B checksum.
const HeaderBytes = 16

// errRingFull is returned when the producer has no free slot; callers
// back off and retry, which is the backpressure mechanism.
var errRingFull = errors.New("msgring: ring full")

// Message is one entry in a ring.
type Message struct {
	Kind     uint16
	SrcActor uint32
	DstActor uint32
	Data     []byte
	// App is an opaque handle to the staged application message; it is
	// runtime-local context (the real system passes a packet-buffer
	// pointer alongside the ring entry), so only Data counts toward the
	// wire size and checksum.
	App any
	// enqueuedAt is stamped by Push for latency accounting.
	enqueuedAt sim.Time

	checksum uint32
	ready    bool
}

// wireSize is the message's size on PCIe.
func (m *Message) wireSize() int { return HeaderBytes + len(m.Data) }

func (m *Message) seal()        { m.checksum = crc32.ChecksumIEEE(m.Data) }
func (m *Message) intact() bool { return m.checksum == crc32.ChecksumIEEE(m.Data) }

// Ring is one unidirectional circular buffer. The producer's free-space
// view (credits) lags the consumer's true position until the consumer
// syncs, exactly as with lazy header updates.
type Ring struct {
	slots []Message
	mask  int
	head  int // consumer position
	tail  int // producer position
	// creditHead is the consumer position as last synced to the producer.
	creditHead int
	consumed   int // messages consumed since last credit sync

	// Pushed/Popped/CreditSyncs/ChecksumDrops count events for tests and
	// the framework-overhead experiment (Figure 17).
	Pushed        uint64
	popped        uint64
	CreditSyncs   uint64
	checksumDrops uint64

	// chk/chkLabel: the invariant checker re-validates the pointer and
	// credit relations after every operation (nil = disabled).
	chk      *invariant.Checker
	chkLabel string
}

// newRing creates a ring with the given power-of-two capacity. The
// slots are allocated by the first push: a node whose actors never
// cross PCIe (every mesh node) never pays for them.
func newRing(capacity int) *Ring {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("msgring: capacity must be a positive power of two")
	}
	return &Ring{mask: capacity - 1}
}

// check re-validates the pointer/credit relations; nil-checker safe.
func (r *Ring) check() {
	r.chk.RingOp(r.chkLabel, r.head, r.tail, r.creditHead, r.consumed, r.mask+1)
}

// freeFromProducer is the producer's (possibly stale) view of free slots.
func (r *Ring) freeFromProducer() int {
	used := r.tail - r.creditHead
	return r.mask + 1 - used
}

// push reserves a slot. The message only becomes visible to the
// consumer once markReady runs (when the modeled DMA write completes).
func (r *Ring) push(m Message) (int, error) {
	if r.freeFromProducer() <= 0 {
		return 0, errRingFull
	}
	if r.slots == nil {
		r.slots = make([]Message, r.mask+1)
	}
	idx := r.tail & r.mask
	m.seal()
	r.slots[idx] = m
	r.tail++
	r.Pushed++
	r.check()
	return idx, nil
}

func (r *Ring) markReady(idx int) { r.slots[idx].ready = true }

// pop returns the next ready message. A slot that is occupied but not
// yet ready (DMA still in flight, or checksum mismatch) blocks the
// consumer, preserving FIFO order.
func (r *Ring) pop() (Message, bool) {
	if r.head == r.tail {
		return Message{}, false
	}
	idx := r.head & r.mask
	s := &r.slots[idx]
	if !s.ready {
		return Message{}, false
	}
	if !s.intact() {
		// Partial DMA write detected: leave the slot for the engine to
		// finish; the consumer polls again later. Counted so tests can
		// observe the defense firing.
		r.checksumDrops++
		return Message{}, false
	}
	m := *s
	s.ready = false
	s.Data = nil
	s.App = nil
	r.head++
	r.popped++
	r.consumed++
	r.check()
	return m, true
}

// needsCreditSync reports whether the consumer has read half the ring
// since the last sync. The consumed > 0 guard matters for tiny rings:
// with capacity 1, len/2 is 0 and an unguarded comparison fires a
// credit message (and its 40ns doorbell cost) on every poll, including
// empty ones that consumed nothing.
func (r *Ring) needsCreditSync() bool {
	return r.consumed > 0 && r.consumed >= (r.mask+1)/2
}

// syncCredits publishes the consumer position to the producer.
func (r *Ring) syncCredits() {
	r.creditHead = r.head
	r.consumed = 0
	r.CreditSyncs++
	r.check()
}

// Channel is a bidirectional host↔NIC I/O channel: a NIC→host ring and
// a host→NIC ring sharing one DMA engine, as in the prototype (§3.5).
type Channel struct {
	eng *sim.Engine
	dma *pcie.Engine

	toHost *Ring
	toNIC  *Ring

	// batchSize is how many NIC-side messages are aggregated into one
	// scatter-gather DMA write before flushing. 1 disables batching.
	batchSize int
	pending   []int // slot indices awaiting flush
	pendingSz []int

	// creditCost tracks DMA bytes spent on credit messages.
	CreditMessages uint64

	// OnHostReady, if set, fires (once per completed flush) when new
	// NIC→host messages become pollable; the host runtime uses it to
	// drive its polling loop event-style.
	OnHostReady func()
	// OnNICReady fires when the host pushes a message for the NIC.
	OnNICReady func()

	// hostBatch is the array HostPoll returns its messages in, reused by
	// every poll.
	hostBatch []Message
	// The channel's free lists of in-flight DMA records: scatter-gather
	// writes (Flush) and batched reads (NICPoll).
	freeFlushes sim.FreeList[flush]
	freeReads   sim.FreeList[nicRead]
	// chk is the invariant checker (nil when disabled): under it released
	// records are poisoned instead of recycled. label names the channel
	// in its reports.
	chk   *invariant.Checker
	label string
}

// The channel's two per-DMA records follow the idiom of DESIGN.md §4:
// made on first use, the completion bound once, recycled through a capped
// single-writer sim.FreeList. Several of each can be queued on the DMA
// engine at once. Under the invariant checker a released record is
// poisoned instead of recycled, and a completion landing on it afterwards
// is a use-after-release violation.

// flush is one scatter-gather write of NIC→host messages: the ring slots
// it makes visible when it lands.
type flush struct {
	c        *Channel
	idxs     []int
	landFn   func() // f.land
	poisoned bool
}

// nicRead is one batched DMA read of the host→NIC ring. It owns the batch
// its callback receives when the read lands.
type nicRead struct {
	c        *Channel
	msgs     []Message
	done     func([]Message)
	landFn   func() // r.land
	poisoned bool
}

// maxFreeFlushes and maxFreeReads bound a channel's two free lists: the
// DMA records a channel has in flight at once in steady state, with room
// to spare.
const (
	maxFreeFlushes = 16
	maxFreeReads   = 16
)

func (c *Channel) takeFlush() *flush {
	if f := c.freeFlushes.Take(); f != nil {
		return f
	}
	f := &flush{c: c}
	f.landFn = f.land
	return f
}

// land marks the flushed slots ready and tells the host.
func (f *flush) land() {
	c := f.c
	if f.poisoned {
		c.chk.UseAfterRelease("flush record", c.label)
		return
	}
	for _, i := range f.idxs {
		c.toHost.markReady(i)
	}
	f.idxs = f.idxs[:0]
	if c.chk != nil {
		f.poisoned = true
	} else {
		c.freeFlushes.Put(f, maxFreeFlushes)
	}
	if c.OnHostReady != nil {
		c.OnHostReady()
	}
}

func (c *Channel) takeRead() *nicRead {
	if r := c.freeReads.Take(); r != nil {
		return r
	}
	r := &nicRead{c: c}
	r.landFn = r.land
	return r
}

// land delivers the read's batch, then releases the record: the batch is
// borrowed for the callback only.
func (r *nicRead) land() {
	c := r.c
	if r.poisoned {
		c.chk.UseAfterRelease("NIC read record", c.label)
		return
	}
	if r.done != nil {
		r.done(r.msgs)
	}
	r.release()
}

func (r *nicRead) release() {
	clear(r.msgs) // do not pin the messages' payloads
	r.msgs = r.msgs[:0]
	r.done = nil
	if r.c.chk != nil {
		r.poisoned = true
		return
	}
	r.c.freeReads.Put(r, maxFreeReads)
}

// DefaultRingSlots matches the prototype's modest per-channel rings.
const DefaultRingSlots = 256

// NewChannel builds a channel over the given DMA engine.
func NewChannel(eng *sim.Engine, dma *pcie.Engine, slots, batch int) *Channel {
	if batch <= 0 {
		batch = 1
	}
	return &Channel{
		eng: eng, dma: dma,
		toHost:    newRing(slots),
		toNIC:     newRing(slots),
		batchSize: batch,
	}
}

// Observe attaches the checker to the channel's DMA records and to both
// rings, which it re-validates for credit conservation after every
// operation; label (typically the node name) names the channel and
// prefixes the per-direction ring labels. A nil checker leaves checking
// off.
func (c *Channel) Observe(chk *invariant.Checker, label string) {
	if chk == nil {
		return
	}
	c.chk, c.label = chk, label
	c.toHost.chk, c.toHost.chkLabel = chk, label+"/toHost"
	c.toNIC.chk, c.toNIC.chkLabel = chk, label+"/toNIC"
}

// ToHost exposes the NIC→host ring for inspection.
func (c *Channel) ToHost() *Ring { return c.toHost }

// ToNIC exposes the host→NIC ring for inspection.
func (c *Channel) ToNIC() *Ring { return c.toNIC }

// NICPush queues a message from the NIC to the host. It returns the
// NIC-core occupancy charged (command build + possibly a flush) or
// an error when the producer is out of credits (ring full).
func (c *Channel) NICPush(m Message) (sim.Time, error) {
	m.enqueuedAt = c.eng.Now()
	idx, err := c.toHost.push(m)
	if err != nil {
		return 0, err
	}
	c.pending = append(c.pending, idx)
	c.pendingSz = append(c.pendingSz, m.wireSize())
	cost := 50 * sim.Nanosecond // build header, stage descriptor
	if len(c.pending) >= c.batchSize {
		cost += c.Flush()
	}
	return cost, nil
}

// Flush issues the aggregated DMA write for all pending NIC-side
// messages and returns the NIC-core occupancy.
func (c *Channel) Flush() sim.Time {
	if len(c.pending) == 0 {
		return 0
	}
	f := c.takeFlush()
	f.idxs = append(f.idxs, c.pending...)
	cost := c.dma.WriteGather(c.pendingSz, f.landFn)
	c.pending = c.pending[:0]
	c.pendingSz = c.pendingSz[:0]
	return cost
}

// HostPoll drains up to max ready messages on the host side. The host
// core cost is small (local DRAM reads); returned with the messages.
// Consuming past the half-ring mark triggers the lazy credit sync, a
// single 8B DMA-visible doorbell.
//
// The batch is a borrow: the channel returns every poll's messages in
// one array it owns, so the slice is valid until the next HostPoll.
// Copy out what must outlive that.
func (c *Channel) HostPoll(max int) ([]Message, sim.Time) {
	clear(c.hostBatch) // do not pin the last batch's payloads
	out := c.hostBatch[:0]
	var cost sim.Time
	for len(out) < max {
		m, ok := c.toHost.pop()
		if !ok {
			break
		}
		cost += 80 * sim.Nanosecond // header check + pointer chase
		out = append(out, m)
	}
	c.hostBatch = out
	if c.toHost.needsCreditSync() {
		c.toHost.syncCredits()
		c.CreditMessages++
		cost += 40 * sim.Nanosecond // MMIO doorbell store
	}
	return out, cost
}

// HostPush queues a message from host to NIC. Host writes are local
// stores into the host-resident ring, so the message is immediately
// fetchable; the cost is a local copy.
func (c *Channel) HostPush(m Message) (sim.Time, error) {
	m.enqueuedAt = c.eng.Now()
	idx, err := c.toNIC.push(m)
	if err != nil {
		return 0, err
	}
	c.toNIC.markReady(idx)
	if c.OnNICReady != nil {
		c.eng.Defer(c.OnNICReady)
	}
	return 60 * sim.Nanosecond, nil
}

// NICPoll fetches up to max messages from the host→NIC ring with one
// batched DMA read; done delivers them when the read lands. The return
// value is the NIC-core occupancy (non-blocking issue).
//
// The batch done receives is a borrow: it belongs to the read, which is
// recycled when done returns, so the slice is valid only during the
// call. Several reads may be in flight, each with a batch of its own.
func (c *Channel) NICPoll(max int, done func([]Message)) sim.Time {
	r := c.takeRead()
	r.done = done
	total := 0
	for len(r.msgs) < max {
		m, ok := c.toNIC.pop()
		if !ok {
			break
		}
		total += m.wireSize()
		r.msgs = append(r.msgs, m)
	}
	if c.toNIC.needsCreditSync() {
		c.toNIC.syncCredits()
		c.CreditMessages++
	}
	if len(r.msgs) == 0 {
		// An empty poll still costs a peek at the ring header.
		if done != nil {
			c.eng.Defer(r.landFn)
		} else {
			r.release()
		}
		return 30 * sim.Nanosecond
	}
	return c.dma.ReadAsync(total, r.landFn)
}
