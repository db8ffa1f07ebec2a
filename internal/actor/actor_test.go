package actor

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestMailboxFIFO(t *testing.T) {
	var mb Mailbox
	for i := 0; i < 5; i++ {
		mb.Push(Msg{Kind: Kind(i)})
	}
	for i := 0; i < 5; i++ {
		m, ok := mb.Pop()
		if !ok || m.Kind != Kind(i) {
			t.Fatalf("pop %d: got %v ok=%v", i, m.Kind, ok)
		}
	}
	if _, ok := mb.Pop(); ok {
		t.Fatal("pop from empty mailbox succeeded")
	}
}

func TestMailboxHighWater(t *testing.T) {
	var mb Mailbox
	for i := 0; i < 7; i++ {
		mb.Push(Msg{})
	}
	mb.Pop()
	mb.Push(Msg{})
	if mb.HighWater != 7 {
		t.Fatalf("HighWater = %d, want 7", mb.HighWater)
	}
}

func TestMailboxDrain(t *testing.T) {
	var mb Mailbox
	mb.Push(Msg{Kind: 1})
	mb.Push(Msg{Kind: 2})
	got := mb.Drain()
	if len(got) != 2 || got[0].Kind != 1 {
		t.Fatalf("Drain = %v", got)
	}
	if mb.Len() != 0 {
		t.Fatal("mailbox not empty after drain")
	}
	// Drain hands over only what is still queued — not what was popped —
	// and leaves a mailbox that keeps working and keeps its high-water mark.
	for k := 3; k <= 6; k++ {
		mb.Push(Msg{Kind: Kind(k)})
	}
	mb.Pop()
	got = mb.Drain()
	if len(got) != 3 || got[0].Kind != 4 || got[2].Kind != 6 {
		t.Fatalf("Drain after a pop = %v, want kinds 4..6", got)
	}
	mb.Push(Msg{Kind: 7})
	if m, ok := mb.Pop(); !ok || m.Kind != 7 || mb.HighWater != 4 {
		t.Fatalf("after drain: pop = %v %v, HighWater = %d (want kind 7, 4)", m.Kind, ok, mb.HighWater)
	}
}

func TestExecLockExclusive(t *testing.T) {
	a := &Actor{Exclusive: true}
	if !a.TryAcquire() {
		t.Fatal("first acquire failed")
	}
	if a.TryAcquire() {
		t.Fatal("second acquire on exclusive actor succeeded")
	}
	a.Release()
	if !a.TryAcquire() {
		t.Fatal("acquire after release failed")
	}
}

func TestExecLockShared(t *testing.T) {
	a := &Actor{Exclusive: false}
	for i := 0; i < 4; i++ {
		if !a.TryAcquire() {
			t.Fatalf("shared acquire %d failed", i)
		}
	}
	if a.Running() != 4 {
		t.Fatalf("Running = %d", a.Running())
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	a := &Actor{}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a.Release()
}

func TestObserveUpdatesStats(t *testing.T) {
	a := &Actor{}
	for i := 0; i < 100; i++ {
		a.Observe(10*sim.Microsecond, 8*sim.Microsecond, 512)
	}
	if a.Invoked != 100 {
		t.Fatalf("Invoked = %d", a.Invoked)
	}
	if m := a.ExecStats.Mean(); m < 9.9 || m > 10.1 {
		t.Fatalf("mean exec = %v µs, want 10", m)
	}
	if s := a.SizeStats.Mean(); s < 511 || s > 513 {
		t.Fatalf("mean size = %v, want 512", s)
	}
	if a.ExecStats.Tail() < a.ExecStats.Mean() {
		t.Fatal("dispersion below mean")
	}
}

func TestDispersionSeparatesWorkloads(t *testing.T) {
	low, high := &Actor{}, &Actor{}
	for i := 0; i < 1000; i++ {
		low.Observe(20*sim.Microsecond, 20*sim.Microsecond, 0)
		if i%2 == 0 {
			high.Observe(2*sim.Microsecond, 2*sim.Microsecond, 0)
		} else {
			high.Observe(38*sim.Microsecond, 38*sim.Microsecond, 0)
		}
	}
	if high.ExecStats.Tail() <= low.ExecStats.Tail() {
		t.Fatalf("bimodal actor dispersion %v should exceed constant %v",
			high.ExecStats.Tail(), low.ExecStats.Tail())
	}
}

func TestLoadRanksByFrequencyAndCost(t *testing.T) {
	hot, cold := &Actor{}, &Actor{}
	for i := 0; i < 1000; i++ {
		hot.Observe(10*sim.Microsecond, 10*sim.Microsecond, 0)
	}
	for i := 0; i < 10; i++ {
		cold.Observe(10*sim.Microsecond, 10*sim.Microsecond, 0)
	}
	if hot.Load() <= cold.Load() {
		t.Fatal("frequently invoked actor should carry more load")
	}
}

func TestTable(t *testing.T) {
	tbl := NewTable()
	tbl.Set(1, Ref{Node: "n0", OnNIC: true})
	tbl.Set(2, Ref{Node: "n1"})
	r, ok := tbl.Lookup(1)
	if !ok || r.Node != "n0" || !r.OnNIC {
		t.Fatalf("Lookup(1) = %v %v", r, ok)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	tbl.Delete(1)
	if _, ok := tbl.Lookup(1); ok {
		t.Fatal("deleted actor still present")
	}
}

func TestMigStateString(t *testing.T) {
	states := map[MigState]string{
		Stable: "Stable", Prepare: "Prepare", Ready: "Ready",
		Gone: "Gone", Clean: "Clean", MigState(99): "MigState(99)",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

// Property: mailbox length equals pushes minus pops under any op
// sequence, and drained content preserves order.
func TestMailboxProperty(t *testing.T) {
	f := func(ops []bool) bool {
		var mb Mailbox
		pushed, popped := 0, 0
		next := 0
		for _, push := range ops {
			if push {
				mb.Push(Msg{Kind: Kind(pushed)})
				pushed++
			} else if m, ok := mb.Pop(); ok {
				if int(m.Kind) != next {
					return false
				}
				next++
				popped++
			}
		}
		return mb.Len() == pushed-popped
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
