package invariant

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// countRule tallies violations recorded under a rule.
func countRule(c *Checker, rule string) int {
	n := 0
	for _, v := range c.Violations() {
		if v.rule == rule {
			n++
		}
	}
	return n
}

func TestNilCheckerIsSafe(t *testing.T) {
	var c *Checker
	if c.Enabled() {
		t.Fatal("nil checker reports enabled")
	}
	// Every hook must be a no-op on the nil receiver — this is the
	// zero-cost disabled contract the substrate packages rely on.
	c.NetInject()
	c.NetDeliver()
	c.NetDrop("loss")
	c.GateAdmit()
	c.GateDeliver()
	c.Exec()
	c.CoreBusy("n", 0, 5, 1)
	c.RingOp("r", 9, 3, 0, 0, 4)
	c.DMOAlloc("n", 1, 64, 64, 32)
	c.DMOFree("n", 1, 64, 0)
	c.DMODestroy("n", 1, 64)
	c.LeaderClaim("g", 1, 0)
	c.DRRAdd("n", 1)
	c.DRRVisit("n", 0, 1)
	c.DRRRemove("n", 1)
	c.EpochAt("+crash", 0)
	c.Finish()
	if checks, vs, err := Close([]*Checker{c}); c.err() != nil || checks != 0 || len(vs) != 0 || err != nil {
		t.Fatal("nil checker accumulated state")
	}
	if c.Fingerprint() != "" {
		t.Fatal("nil checker produced a fingerprint")
	}
	var a *QueueAudit
	if seq := a.Push(1); seq != 0 {
		t.Fatalf("nil audit Push = %d, want 0", seq)
	}
	a.Pop(1, 1)
}

func TestNilCheckerYieldsNilAudit(t *testing.T) {
	var c *Checker
	if a := c.NewQueueAudit("q"); a != nil {
		t.Fatal("nil checker returned a live audit")
	}
}

func TestNetConservation(t *testing.T) {
	c := New(nil)
	c.NetInject()
	c.NetDeliver()
	if countRule(c, "net-conservation") != 0 {
		t.Fatal("clean inject/deliver flagged")
	}
	c.NetDeliver() // delivered 2 > injected 1
	if countRule(c, "net-conservation") != 1 {
		t.Fatal("over-delivery not flagged")
	}
	c2 := New(nil)
	c2.NetDrop("loss") // dropped 1 > injected 0
	if countRule(c2, "net-conservation") != 1 {
		t.Fatal("drop without inject not flagged")
	}
}

func TestGateConservation(t *testing.T) {
	c := New(nil)
	c.GateAdmit()
	c.GateDeliver()
	c.GateDeliver()
	if countRule(c, "gate-conservation") != 1 {
		t.Fatal("gate over-delivery not flagged")
	}
}

func TestCoreBusy(t *testing.T) {
	c := New(nil)
	c.CoreBusy("nic0", 2, 100, 200)
	if len(c.Violations()) != 0 {
		t.Fatal("busy ≤ wall flagged")
	}
	c.CoreBusy("nic0", 2, 300, 200)
	if countRule(c, "core-busy") != 1 {
		t.Fatal("busy > wall not flagged")
	}
}

func TestRingOp(t *testing.T) {
	cases := []struct {
		name                                   string
		head, tail, creditHead, consumed, capN int
		bad                                    bool
	}{
		{"clean", 3, 5, 1, 2, 8, false},
		{"clean-wrap", 100, 104, 98, 2, 8, false},
		{"head-past-tail", 6, 5, 1, 5, 8, true},
		{"credit-past-head", 3, 5, 4, -1, 8, true},
		{"over-capacity", 3, 12, 3, 0, 8, true},
		{"producer-view-over-capacity", 9, 10, 1, 8, 8, true},
		{"consumed-mismatch", 3, 5, 1, 7, 8, true},
	}
	for _, tc := range cases {
		c := New(nil)
		c.RingOp("ring", tc.head, tc.tail, tc.creditHead, tc.consumed, tc.capN)
		got := countRule(c, "ring-credit") > 0
		if got != tc.bad {
			t.Errorf("%s: violation = %v, want %v", tc.name, got, tc.bad)
		}
	}
}

func TestDMOAccounting(t *testing.T) {
	c := New(nil)
	c.DMOAlloc("n0", 7, 64, 64, 1024)
	c.DMOAlloc("n0", 7, 32, 96, 1024)
	c.DMOFree("n0", 7, 32, 64)
	c.DMODestroy("n0", 7, 64)
	if len(c.Violations()) != 0 {
		t.Fatalf("clean alloc/free/destroy flagged: %v", c.Violations())
	}

	c = New(nil)
	c.DMOAlloc("n0", 7, 64, 128, 1024) // store says 128 used, shadow says 64
	if countRule(c, "dmo-bytes") != 1 {
		t.Fatal("used/shadow mismatch not flagged")
	}

	c = New(nil)
	c.DMOAlloc("n0", 7, 64, 64, 32) // over limit
	if countRule(c, "dmo-bytes") != 1 {
		t.Fatal("over-limit alloc not flagged")
	}

	c = New(nil)
	c.DMOFree("n0", 7, 16, 0) // free with nothing allocated
	if countRule(c, "dmo-bytes") == 0 {
		t.Fatal("over-free not flagged")
	}

	c = New(nil)
	c.DMOAlloc("n0", 7, 64, 64, 1024)
	c.DMODestroy("n0", 7, 32) // destroy claims fewer bytes than live
	if countRule(c, "dmo-bytes") != 1 {
		t.Fatal("destroy byte mismatch not flagged")
	}
}

func TestLeaderClaim(t *testing.T) {
	c := New(nil)
	c.LeaderClaim("g00", 1, 0)
	c.LeaderClaim("g00", 1, 0) // same replica re-claims: fine
	c.LeaderClaim("g00", 4, 1) // new ballot: fine
	c.LeaderClaim("g01", 1, 2) // other group, same ballot: fine
	if len(c.Violations()) != 0 {
		t.Fatalf("legitimate claims flagged: %v", c.Violations())
	}
	c.LeaderClaim("g00", 4, 2) // split brain
	if countRule(c, "single-leader") != 1 {
		t.Fatal("two leaders on one ballot not flagged")
	}
}

func TestQueueAuditFIFO(t *testing.T) {
	c := New(nil)
	a := c.NewQueueAudit("q")
	s1 := a.Push(5)
	s2 := a.Push(5)
	s3 := a.Push(9)
	if a.queued != 3 {
		t.Fatalf("queued = %d", a.queued)
	}
	a.Pop(9, s3) // other flow first: per-flow FIFO doesn't order across flows
	a.Pop(5, s1)
	a.Pop(5, s2)
	if len(c.Violations()) != 0 {
		t.Fatalf("in-order pops flagged: %v", c.Violations())
	}
	if a.queued != 0 {
		t.Fatalf("queued = %d after drain", a.queued)
	}
}

func TestQueueAuditDetectsReorder(t *testing.T) {
	c := New(nil)
	a := c.NewQueueAudit("q")
	s1 := a.Push(5)
	s2 := a.Push(5)
	s3 := a.Push(5)
	a.Pop(5, s2) // skipped s1
	if countRule(c, "queue-fifo") != 1 {
		t.Fatal("reorder not flagged")
	}
	// Resync: the remaining pops in order must not cascade violations.
	a.Pop(5, s1)
	a.Pop(5, s3)
	if countRule(c, "queue-fifo") != 1 {
		t.Fatalf("resync failed, violations: %v", c.Violations())
	}
}

func TestQueueAuditDetectsLossAndPhantom(t *testing.T) {
	c := New(nil)
	a := c.NewQueueAudit("q")
	a.Pop(5, 1) // nothing queued
	if countRule(c, "queue-fifo") != 1 {
		t.Fatal("pop from empty flow not flagged")
	}
	a.Push(5)
	a.Pop(5, 99) // seq never pushed: reorder + failed resync
	if countRule(c, "queue-fifo") != 3 {
		t.Fatalf("phantom pop recorded %d violations, want 3", countRule(c, "queue-fifo"))
	}
}

func TestDRRFairness(t *testing.T) {
	c := New(nil)
	c.DRRAdd("n", 1)
	c.DRRAdd("n", 2)
	// Two full fair rounds.
	c.DRRVisit("n", 0, 1)
	c.DRRVisit("n", 0, 2)
	c.DRRVisit("n", 0, 1)
	c.DRRVisit("n", 0, 2)
	if len(c.Violations()) != 0 {
		t.Fatalf("fair rounds flagged: %v", c.Violations())
	}
	// Now the cursor revisits 1 while 2 is still unvisited this round.
	c.DRRVisit("n", 0, 1)
	c.DRRVisit("n", 0, 1)
	if countRule(c, "drr-fairness") != 1 {
		t.Fatal("skipped actor not flagged")
	}
}

func TestDRRFreshActorExempt(t *testing.T) {
	c := New(nil)
	c.DRRAdd("n", 1)
	c.DRRVisit("n", 0, 1)
	c.DRRAdd("n", 2) // joins mid-round: exempt until next round
	c.DRRVisit("n", 0, 1)
	if len(c.Violations()) != 0 {
		t.Fatalf("fresh actor flagged: %v", c.Violations())
	}
	// Next round it is eligible: skipping it now is a violation.
	c.DRRVisit("n", 0, 1)
	if countRule(c, "drr-fairness") != 1 {
		t.Fatal("second-round skip not flagged")
	}
}

func TestDRRRemoveClearsEligibility(t *testing.T) {
	c := New(nil)
	c.DRRAdd("n", 1)
	c.DRRAdd("n", 2)
	c.DRRVisit("n", 0, 1)
	c.DRRRemove("n", 2)
	c.DRRVisit("n", 0, 1)
	c.DRRVisit("n", 0, 1)
	if len(c.Violations()) != 0 {
		t.Fatalf("removed actor still counted: %v", c.Violations())
	}
}

func TestDRRCoresIndependent(t *testing.T) {
	c := New(nil)
	c.DRRAdd("n", 1)
	c.DRRAdd("n", 2)
	// Core 0 scans both; core 1 (spun up later) only ever sees actor 2 —
	// rounds are per-core, so core 0's wrap must not read core 1's state.
	c.DRRVisit("n", 0, 1)
	c.DRRVisit("n", 1, 2)
	c.DRRVisit("n", 0, 2)
	c.DRRVisit("n", 1, 2)
	c.DRRVisit("n", 0, 1)
	if countRule(c, "drr-fairness") != 1 {
		// Core 1 revisited actor 2 while actor 1 went unvisited in *its*
		// stream — that one is a real skip.
		t.Fatalf("per-core rounds broken: %v", c.Violations())
	}
}

func TestFinishQuiescence(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng)
	c.NetInject() // never delivered nor dropped
	c.Finish()    // engine has no pending events: equalities apply
	if countRule(c, "net-conservation") != 1 {
		t.Fatal("stranded packet not flagged at quiescence")
	}

	eng2 := sim.NewEngine(1)
	eng2.After(sim.Microsecond, func() {}) // engine still armed
	c2 := New(eng2)
	c2.NetInject()
	c2.Finish() // cutoff run: equalities must be skipped
	if len(c2.Violations()) != 0 {
		t.Fatalf("in-flight work flagged on armed engine: %v", c2.Violations())
	}
}

func TestFingerprintDeterminism(t *testing.T) {
	mk := func() *Checker {
		c := New(nil)
		c.NetInject()
		c.NetDeliver()
		c.EpochAt("+crash kv0", c.now())
		c.GateAdmit()
		c.GateDeliver()
		c.EpochAt("-crash kv0", c.now())
		c.Finish()
		return c
	}
	a, b := mk(), mk()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical runs produced different fingerprints")
	}
	if !strings.Contains(a.Fingerprint(), "epoch t=0 +crash kv0") {
		t.Fatalf("fingerprint missing epoch line:\n%s", a.Fingerprint())
	}
	if !strings.Contains(a.Fingerprint(), "final t=0") {
		t.Fatalf("fingerprint missing final line:\n%s", a.Fingerprint())
	}
	if SortFingerprints([]string{a.Fingerprint(), "zzz"}) !=
		SortFingerprints([]string{"zzz", b.Fingerprint()}) {
		t.Fatal("SortFingerprints is order-sensitive")
	}
}

func TestErr(t *testing.T) {
	c := New(nil)
	if c.err() != nil {
		t.Fatal("clean checker errors")
	}
	c.GateDeliver()
	err := c.err()
	if err == nil || !strings.Contains(err.Error(), "gate-conservation") {
		t.Fatalf("Err() = %v", err)
	}
}
