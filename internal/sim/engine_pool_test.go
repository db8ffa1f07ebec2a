package sim

import "testing"

// --- Timer.Stop state machine -------------------------------------------

func TestTimerStopBeforeFire(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.At(10, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending right after At")
	}
	if !tm.Stop() {
		t.Fatal("Stop before firing should report true")
	}
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Now() != 0 {
		t.Fatalf("cancelled event advanced the clock to %v", e.Now())
	}
}

func TestTimerStopAfterFireReportsFalse(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(10, func() {})
	e.Run()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing should report false")
	}
}

func TestTimerDoubleStop(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(10, func() {})
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop after drain should report false")
	}
}

func TestTimerZeroValueStop(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero-value Stop should report false")
	}
	if tm.Pending() {
		t.Fatal("zero-value timer pending")
	}
}

func TestTimerStopDuringOwnCallback(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	stopped := true
	tm = e.At(10, func() { stopped = tm.Stop() })
	e.Run()
	if stopped {
		t.Fatal("Stop from inside the firing callback should report false")
	}
}

// TestTimerStaleHandleAfterReuse pins the pool-safety property: once an
// event shell is recycled into a new timer, the old handle must be inert
// even though it points at the same shell.
func TestTimerStaleHandleAfterReuse(t *testing.T) {
	e := NewEngine(1)
	old := e.At(5, func() {})
	e.Run() // fires; shell returns to the free list
	fired := false
	fresh := e.At(10, func() { fired = true }) // reuses the shell
	if old.e != fresh.e {
		t.Skip("allocator did not reuse the shell; property not exercised")
	}
	if old.Stop() {
		t.Fatal("stale handle cancelled someone else's event")
	}
	e.Run()
	if !fired {
		t.Fatal("fresh event did not fire")
	}
}

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

// --- pooling / lazy cleanup ---------------------------------------------

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

// TestEngineCompaction floods the heap with cancelled timers and checks
// that (a) the bound kicks in, (b) survivors still fire in exact order.
func TestEngineCompaction(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var timers []Timer
	for i := 0; i < 10000; i++ {
		i := i
		tm := e.At(Time(10000-i), func() { got = append(got, 10000-i) })
		if i%2 == 0 {
			timers = append(timers, tm)
		}
	}
	for _, tm := range timers {
		if !tm.Stop() {
			t.Fatal("Stop on pending timer reported false")
		}
	}
	// The heap must have been compacted well below live+dead.
	if len(e.q) > e.Pending()*2+64 {
		t.Fatalf("heap holds %d slots for %d live events — compaction missing", len(e.q), e.Pending())
	}
	e.Run()
	if len(got) != 5000 {
		t.Fatalf("fired %d events, want 5000", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("events out of order after compaction: %d then %d", got[i-1], got[i])
		}
	}
}

// TestEngineOrderingMatchesReference replays a randomized schedule with
// cancellations on the engine and on a naive sorted-list reference, and
// requires identical firing orders — the determinism contract the 4-ary
// heap must preserve bit-for-bit.
func TestEngineOrderingMatchesReference(t *testing.T) {
	type ref struct {
		at   Time
		id   int
		dead bool
	}
	rnd := NewRand(99)
	e := NewEngine(1)
	var refs []*ref
	var gotOrder, wantOrder []int
	var timers []Timer
	for i := 0; i < 3000; i++ {
		i := i
		at := Time(rnd.Intn(500))
		r := &ref{at: at, id: i}
		refs = append(refs, r)
		timers = append(timers, e.At(at, func() { gotOrder = append(gotOrder, i) }))
	}
	for i := 0; i < 3000; i += 3 {
		refs[i].dead = true
		timers[i].Stop()
	}
	// Reference order: stable sort by (at, insertion index).
	for at := Time(0); at < 500; at++ {
		for _, r := range refs {
			if !r.dead && r.at == at {
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
