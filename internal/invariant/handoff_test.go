package invariant

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestNetHandoffBalancesLedgers models a packet crossing partitions:
// the source ledger injects and hands off, the destination ledger
// receives and delivers. Both must finish balanced with no violations.
func TestNetHandoffBalancesLedgers(t *testing.T) {
	srcEng, dstEng := sim.NewEngine(1), sim.NewEngine(2)
	src, dst := New(srcEng), New(dstEng)

	src.NetInject()
	src.NetHandoffOut()
	dst.NetHandoffIn()
	dst.NetDeliver()

	srcEng.Run()
	dstEng.Run()
	src.Finish()
	dst.Finish()
	if err := src.err(); err != nil {
		t.Fatalf("source ledger: %v", err)
	}
	if err := dst.err(); err != nil {
		t.Fatalf("destination ledger: %v", err)
	}
	if !strings.Contains(src.Fingerprint(), "xfer=1/0") {
		t.Fatalf("source fingerprint missing handoff: %v", src.Fingerprint())
	}
}

// TestNetHandoffOverdraw: delivering a packet that was neither injected
// nor handed in must violate immediately.
func TestNetHandoffOverdraw(t *testing.T) {
	chk := New(sim.NewEngine(1))
	chk.NetHandoffIn()
	chk.NetDeliver()
	chk.NetDeliver() // one more than the ledger is responsible for
	if chk.err() == nil {
		t.Fatalf("over-delivery past the handed-in count not flagged")
	}
}
