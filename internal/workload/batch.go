package workload

import (
	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// defaultBatchWindow is how long the first request of a train waits for
// companions before the train is flushed.
const defaultBatchWindow = 2 * sim.Microsecond

// Train framing on the wire: one packet header per train plus a small
// per-message subheader, versus a full max(64, data+48) packet per
// message when sent singly — the amortization insight I6 applies to
// client requests.
const (
	trainHeaderBytes = 48
	trainSubHeader   = 16
)

type batchKey struct {
	node string
	dst  actor.ID
}

type batchGroup struct {
	key   batchKey
	msgs  []actor.Msg
	sizes []int // per-message single-packet sizes, kept for fallback emits
	armed bool
}

// Batcher coalesces requests issued in the same virtual-time window and
// bound for the same destination (in the sharded RKV deployment: the
// same shard leader) into one core.BatchEnvelope message train. The
// group table is a slice in first-use order — the map below is only a
// lookup index, never iterated — so flush order is deterministic.
type Batcher struct {
	cl *Client
	// Window bounds how long a train's first request waits.
	Window sim.Time
	// maxBatch flushes a train once it holds this many requests; values
	// ≤ 1 disable coalescing entirely (Add degenerates to Send).
	maxBatch int

	groups []*batchGroup
	index  map[batchKey]*batchGroup

	// Trains counts multi-message packets emitted; Coalesced counts the
	// requests that rode in them. Singleton flushes go out as ordinary
	// packets and count in neither.
	Trains    uint64
	Coalesced uint64
}

// NewBatcher attaches a batcher to a client. window ≤ 0 uses the
// default, 2µs.
func NewBatcher(cl *Client, window sim.Time, maxBatch int) *Batcher {
	if window <= 0 {
		window = defaultBatchWindow
	}
	return &Batcher{
		cl:       cl,
		Window:   window,
		maxBatch: maxBatch,
		index:    map[batchKey]*batchGroup{},
	}
}

// Add issues a request through the batcher: the first transmission is
// parked in the destination's train; retries (and everything when
// MaxBatch ≤ 1) bypass batching. Latency is measured from Add, so the
// batching wait is part of the reported response time.
func (b *Batcher) Add(r Request) {
	if b.maxBatch <= 1 {
		b.cl.Send(r)
		return
	}
	node := r.Node
	dst := r.Dst
	b.cl.send(r, func(m actor.Msg, size int) { b.park(node, dst, m, size) })
}

func (b *Batcher) park(node string, dst actor.ID, m actor.Msg, size int) {
	k := batchKey{node: node, dst: dst}
	g := b.index[k]
	if g == nil {
		g = &batchGroup{key: k}
		b.index[k] = g
		b.groups = append(b.groups, g)
	}
	g.msgs = append(g.msgs, m)
	g.sizes = append(g.sizes, size)
	if len(g.msgs) >= b.maxBatch {
		b.flushGroup(g)
		return
	}
	if !g.armed {
		g.armed = true
		b.cl.eng.After(b.Window, func() {
			g.armed = false
			b.flushGroup(g)
		})
	}
}

func (b *Batcher) flushGroup(g *batchGroup) {
	n := len(g.msgs)
	if n == 0 {
		return
	}
	msgs := g.msgs
	sizes := g.sizes
	g.msgs = nil
	g.sizes = nil
	if n == 1 {
		// A lone request gains nothing from train framing; send it as the
		// plain packet it would have been.
		b.cl.emit(g.key.node, msgs[0], sizes[0])
		return
	}
	shares := make([]int, n)
	total := trainHeaderBytes
	for i, m := range msgs {
		shares[i] = trainSubHeader + len(m.Data)
		total += shares[i]
	}
	if total < 64 {
		total = 64
	}
	b.Trains++
	b.Coalesced += uint64(n)
	b.cl.net.Send(&netsim.Packet{
		Src: b.cl.Name, Dst: g.key.node, Size: total,
		FlowID:  msgs[0].FlowID,
		Payload: core.BatchEnvelope{Msgs: msgs, Sizes: shares},
	})
}
