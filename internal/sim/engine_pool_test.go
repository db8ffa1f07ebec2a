package sim

import "testing"

// --- RunUntil edge cases ---------------------------------------

func TestRunUntilDeadlineExactlyOnEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(100, func() { fired = true })
	e.RunUntil(100)
	if !fired {
		t.Fatal("event exactly at the deadline must fire")
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(250)
	if e.Now() != 250 {
		t.Fatalf("Now = %v, want 250", e.Now())
	}
	e.RunUntil(e.Now() + 50)
	if e.Now() != 300 {
		t.Fatalf("Now = %v, want 300", e.Now())
	}
	// A later deadline in the past of Now must not move the clock back.
	e.RunUntil(100)
	if e.Now() != 300 {
		t.Fatalf("RunUntil moved the clock backwards to %v", e.Now())
	}
}

func TestRunUntilFiresEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) }) // 15 ≤ 20
		e.At(20, func() { fired = append(fired, e.Now()) })   // == deadline
		e.At(21, func() { fired = append(fired, e.Now()) })   // beyond
	})
	e.RunUntil(20)
	want := []Time{10, 15, 20}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (the post-deadline event)", e.Pending())
	}
	e.Run()
	if len(fired) != 4 || fired[3] != 21 {
		t.Fatalf("post-deadline event mishandled: %v", fired)
	}
}

// --- pooling ------------------------------------------------------------

// TestEnginePoolReuse checks that a schedule→fire→schedule chain stops
// allocating event shells after warm-up.
func TestEnginePoolReuse(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 100; i++ {
		e.At(Time(i), fn)
	}
	e.Run()
	if got := len(e.free); got != 100 {
		t.Fatalf("free list holds %d shells, want 100", got)
	}
	for i := 0; i < 100; i++ {
		e.After(Time(i+1), fn)
	}
	if got := len(e.free); got != 0 {
		t.Fatalf("free list holds %d shells after reuse, want 0", got)
	}
	e.Run()
}

// TestEngineOrderingMatchesReference replays a randomized schedule on
// the engine and on a naive sorted-list reference, and requires
// identical firing orders — the determinism contract the 4-ary heap
// must preserve bit-for-bit.
func TestEngineOrderingMatchesReference(t *testing.T) {
	type ref struct {
		at Time
		id int
	}
	rnd := NewRand(99)
	e := NewEngine(1)
	var refs []ref
	var gotOrder, wantOrder []int
	for i := 0; i < 3000; i++ {
		i := i
		at := Time(rnd.Intn(500))
		refs = append(refs, ref{at: at, id: i})
		e.At(at, func() { gotOrder = append(gotOrder, i) })
	}
	// Reference order: stable sort by (at, insertion index).
	for at := Time(0); at < 500; at++ {
		for _, r := range refs {
			if r.at == at {
				wantOrder = append(wantOrder, r.id)
			}
		}
	}
	e.Run()
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("fired %d, want %d", len(gotOrder), len(wantOrder))
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("order diverges at %d: got %d want %d", i, gotOrder[i], wantOrder[i])
		}
	}
}
