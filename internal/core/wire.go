package core

import (
	"repro/internal/actor"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// The two per-message records of the wire path. Both follow the idiom of
// netsim's flights and this package's contexts (DESIGN.md §4): made on
// first use, continuations bound once, recycled through a capped
// single-writer sim.FreeList — an arrival on its node's, a wire record on
// its partition's. Under the invariant checker a released record is
// poisoned instead of recycled, and anything landing on it afterwards is
// a use-after-release violation.

// arrival carries the messages of one wire packet from Deliver to the
// moment they enter the runtime: past the traffic gate on an offloaded
// node, after the DPDK receive latency on a baseline one. msgs keeps its
// array across uses, so a train costs no more than a single message.
type arrival struct {
	n        *Node
	msgs     []actor.Msg
	poisoned bool
	// toNICFn and toHostFn are a.toNIC and a.toHost, bound when the
	// record is made.
	toNICFn, toHostFn func()
}

// maxFreeArrivals bounds a node's arrival list: what a node has between
// its port and its cores in steady state with room to spare; a burst past
// the cap is left to the GC. maxFreeWires bounds a partition's wire list
// the way maxFreeFlights bounds its flights.
const (
	maxFreeArrivals = 64
	maxFreeWires    = 512
)

func (n *Node) takeArrival() *arrival {
	if a := n.freeArrivals.Take(); a != nil {
		return a
	}
	a := &arrival{n: n}
	a.toNICFn, a.toHostFn = a.toNIC, a.toHost
	return a
}

// admit starts the arrival's messages on their way into the runtime; the
// gate is charged once for the whole packet.
func (n *Node) admit(a *arrival, flow uint64, size int) {
	if n.Sched != nil && !n.nicDown {
		n.Gate.Admit(flow, size, a.toNICFn)
		return
	}
	// Baseline node: DPDK delivers straight to host cores after the
	// stack's receive latency.
	n.eng.After(n.hostModel.DPDKRecvCost.Cost(size)-n.hostModel.DPDKRxOcc, a.toHostFn)
}

func (a *arrival) toNIC() {
	if a.stale() {
		return
	}
	for i := range a.msgs {
		a.n.arriveNIC(a.msgs[i])
	}
	a.release()
}

func (a *arrival) toHost() {
	if a.stale() {
		return
	}
	for i := range a.msgs {
		a.n.Host.Arrive(a.msgs[i])
	}
	a.release()
}

// stale reports (and, under the checker, records) a continuation firing
// on a record that was already released.
func (a *arrival) stale() bool {
	if a.poisoned {
		a.n.chk.UseAfterRelease("arrival record", a.n.Name)
	}
	return a.poisoned
}

func (a *arrival) release() {
	clear(a.msgs) // do not pin the messages' payloads
	a.msgs = a.msgs[:0]
	if a.n.chk != nil {
		a.poisoned = true
		return
	}
	a.n.freeArrivals.Put(a, maxFreeArrivals)
}

// wireMsg is one node→node message on the wire, travelling as its
// packet's pointer payload so that nothing is boxed. The sender takes it
// from its partition's list; the receiving node's Deliver copies the
// message out and puts the record on *its* partition's list, so a record
// changes partitions with the packet, exactly as a flight does. On one
// partition any traffic recycles one set of records, a one-way node pair
// included; a one-way stream between partitions drains the source's list
// and strands records on the far side, up to the cap. A packet the
// network drops takes its record to the GC.
type wireMsg struct {
	m        actor.Msg
	poisoned bool
}

// wirePool is one partition's list of wire records, touched only from
// that partition's events. Padded to a cache line: the neighbouring
// entries belong to partitions that other window workers are running.
type wirePool struct {
	sim.FreeList[wireMsg]
	_ [40]byte
}

// sendWire puts m on the wire to node as a packet of size bytes.
func (n *Node) sendWire(m actor.Msg, node string, size int) {
	w := n.wires.Take()
	if w == nil {
		w = &wireMsg{}
	}
	w.m = m
	n.c.Net.Send(&netsim.Packet{Src: n.Name, Dst: node, Size: size, FlowID: m.FlowID, Payload: w})
}

// takeWire is the receiving half: it returns the record's message and
// releases the record to this node's partition. ok is false for a record
// that was already released (a packet delivered twice).
func (n *Node) takeWire(w *wireMsg) (m actor.Msg, ok bool) {
	if w.poisoned {
		n.chk.UseAfterRelease("wire record", n.Name)
		return m, false
	}
	m = w.m
	w.m = actor.Msg{} // do not pin the message's payload
	if n.chk != nil {
		w.poisoned = true
	} else {
		n.wires.Put(w, maxFreeWires)
	}
	return m, true
}
