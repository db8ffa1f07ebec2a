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
