package sim

import "testing"

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
		e.Defer(func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 10 || fired[2] != 15 {
		t.Fatalf("fired = %v, want [10 10 15]", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var count int
	for i := Time(1); i <= 10; i++ {
		e.At(i*100, func() { count++ })
	}
	e.RunUntil(500)
	if count != 5 {
		t.Fatalf("count after RunUntil(500) = %d, want 5", count)
	}
	if e.Now() != 500 {
		t.Fatalf("Now = %v, want 500", e.Now())
	}
	e.RunUntil(e.Now() + 500)
	if count != 10 {
		t.Fatalf("count after another 500 = %d, want 10", count)
	}
}

// TestEveryEndsWithForegroundWork runs two tickers beside a finite
// stretch of foreground work under a far deadline. Each must tick while
// the work lasts and end at its first tick after the work drains: a
// ticker that counted the other's pending tick as work would keep both
// alive until the deadline.
func TestEveryEndsWithForegroundWork(t *testing.T) {
	e := NewEngine(1)
	for at := Time(100); at <= 1000; at += 100 {
		e.At(at, func() {})
	}
	var a, b []Time
	e.Every(30, func() { a = append(a, e.Now()) })
	e.Every(70, func() { b = append(b, e.Now()) })
	e.RunUntil(Millisecond)
	if e.Pending() != 0 || e.Busy() {
		t.Fatalf("tickers outlived the work: %d events pending at the deadline, last ticks %v and %v",
			e.Pending(), a[len(a)-1], b[len(b)-1])
	}
	// The first tick of each after the last foreground event (t=1000).
	if got := a[len(a)-1]; got != 1020 || len(a) != 34 {
		t.Fatalf("30ns ticker: %d ticks, last at %v; want 34, last at 1020", len(a), got)
	}
	if got := b[len(b)-1]; got != 1050 || len(b) != 15 {
		t.Fatalf("70ns ticker: %d ticks, last at %v; want 15, last at 1050", len(b), got)
	}
}

func TestTimeConversions(t *testing.T) {
	if Micros(2.5) != 2500*Nanosecond {
		t.Fatalf("Micros(2.5) = %v", Micros(2.5))
	}
	if got := (1500 * Microsecond).Micros(); got != 1500 {
		t.Fatalf("Micros() = %v", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds() = %v", got)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine(42)
		var trace []uint64
		var tick func()
		tick = func() {
			trace = append(trace, e.Rand().Uint64())
			if len(trace) < 100 {
				e.After(Time(1+e.Rand().Intn(50)), tick)
			}
		}
		e.After(1, tick)
		e.Run()
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at step %d", i)
		}
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if mean < 9.8 || mean > 10.2 {
		t.Fatalf("Exp mean = %v, want ≈10", mean)
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical values", same)
	}
}

func TestStationFIFOSingleServer(t *testing.T) {
	e := NewEngine(1)
	st := NewStation(e, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		st.Submit(&Job{Service: 10, Done: func(_, _, f Time) { finish = append(finish, f) }})
	}
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if st.completed != 3 {
		t.Fatalf("Completed = %d", st.completed)
	}
}

func TestStationParallelServers(t *testing.T) {
	e := NewEngine(1)
	st := NewStation(e, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		st.Submit(&Job{Service: 10, Done: func(_, _, f Time) { finish = append(finish, f) }})
	}
	e.Run()
	// Two in parallel finish at 10, next two at 20.
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestStationQueueTimes(t *testing.T) {
	e := NewEngine(1)
	st := NewStation(e, 1)
	var waited Time
	st.Submit(&Job{Service: 100})
	st.Submit(&Job{Service: 1, Done: func(enq, start, _ Time) { waited = start - enq }})
	e.Run()
	if waited != 100 {
		t.Fatalf("second job waited %v, want 100", waited)
	}
}

func TestStationMaxQueue(t *testing.T) {
	e := NewEngine(1)
	st := NewStation(e, 1)
	for i := 0; i < 5; i++ {
		st.Submit(&Job{Service: 1})
	}
	if st.queue.Len() != 4 {
		t.Fatalf("%d queued, want 4", st.queue.Len())
	}
	e.Run()
	if st.queue.Len() != 0 || st.busy != 0 {
		t.Fatal("station not drained")
	}
}
