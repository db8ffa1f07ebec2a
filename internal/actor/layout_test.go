package actor_test

import (
	"testing"
	"unsafe"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/msgring"
	"repro/internal/netsim"
)

// TestMsgLayout pins the message's size. Every hop copies a Msg, every
// queue slot holds one, and a client request boxes one in an interface
// and its reply boxes one in a core.RespEnvelope, so a field that breaks
// the packing costs bytes on every event (DESIGN.md §4). It pins the
// packet's size too: every Send copies a netsim.Packet into the flight
// that carries it, so its bytes are paid per packet the same way; and the
// host↔NIC ring's message, so that each ring slot fits in one cache line.
func TestMsgLayout(t *testing.T) {
	const msgBudget, envBudget, pktBudget, ringBudget = 80, 96, 64, 56
	if got := unsafe.Sizeof(actor.Msg{}); got != msgBudget {
		t.Errorf("actor.Msg is %d B, budget %d B: order its fields so the small scalars share words", got, msgBudget)
	}
	if got := unsafe.Sizeof(core.RespEnvelope{}); got > envBudget {
		t.Errorf("core.RespEnvelope is %d B, budget %d B (the 96-B size class)", got, envBudget)
	}
	if got := unsafe.Sizeof(netsim.Packet{}); got != pktBudget {
		t.Errorf("netsim.Packet is %d B, budget %d B", got, pktBudget)
	}
	if got := unsafe.Sizeof(msgring.Message{}); got != ringBudget {
		t.Errorf("msgring.Message is %d B, budget %d B: a ring slot fits in one cache line", got, ringBudget)
	}
}
