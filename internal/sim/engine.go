// Package sim provides a deterministic discrete-event simulation engine.
//
// All iPipe substrates (NIC cores, PCIe DMA engines, network links, host
// cores) run on top of a single Engine. Time is virtual: an Event fires at
// an absolute Time, and the engine executes events in (time, sequence)
// order, so runs are fully reproducible for a fixed seed and schedule.
//
// The engine is single-threaded by design — determinism comes from the
// total (time, seq) event order. Concurrency in the experiment harness is
// achieved by running many independent Engines, one per sweep point, not
// by sharing one engine across goroutines. Within a single simulation,
// Group (partition.go) shards one topology across several engines and
// advances them conservatively in parallel; each engine still only ever
// runs on one goroutine at a time.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It deliberately mirrors time.Duration's resolution so model
// parameters written as time.Duration convert losslessly.
type Time int64

// Common conversions.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Duration converts a virtual time span to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time as a duration for readability.
func (t Time) String() string { return time.Duration(t).String() }

// Micros builds a virtual time from floating-point microseconds.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

// event is a scheduled callback. Events are pooled: after firing they
// return to the engine's free list and are reused by later
// At/After/Defer calls. A scheduled event always fires; nothing in the
// simulator revokes work, matching iPipe's run-to-completion runtime
// (§3.2) — timeouts check a done flag when they fire instead.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events at the same instant
	fn  func()
}

// executedTotal counts events executed across all engines in the
// process. Engines flush into it at the end of Run/RunUntil, groups
// after every round (not per event — this must not touch the hot
// path), so it is a cheap process-
// wide progress meter for the bench harness's events/sec reporting.
var executedTotal atomic.Uint64

// TotalExecuted returns the process-wide count of executed events,
// accumulated when engines finish a Run/RunUntil call.
func TotalExecuted() uint64 { return executedTotal.Load() }

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	q       eventQueue
	free    []*event // recycled event shells for reuse
	tickers int      // pending events that are Every ticks
	rng     *Rand
	ran     uint64 // events executed
	flushed uint64 // portion of ran already added to executedTotal
}

// NewEngine returns an engine at time zero with a deterministic PRNG
// seeded by seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic PRNG.
func (e *Engine) Rand() *Rand { return e.rng }

// Executed reports the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.ran }

// Pending reports the number of scheduled (not yet fired) events.
func (e *Engine) Pending() int { return len(e.q) }

// Busy reports whether any event other than an Every tick is pending:
// the simulation still has foreground work.
func (e *Engine) Busy() bool { return len(e.q) > e.tickers }

// alloc takes an event shell from the free list, or makes one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// maxFreeEvents bounds the free list. A burst of short-lived events
// (message trains, retry storms) can momentarily inflate the heap to
// hundreds of thousands of shells; without a cap every one of them
// would stay pinned on the free list for the rest of the run. Beyond
// the cap, shells are released to the GC instead. Steady-state churn
// far below the cap still allocates nothing (see BenchmarkEnginePool*).
const maxFreeEvents = 4096

// recycle returns ev to the free list (or drops it once the list is
// full).
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	if len(e.free) >= maxFreeEvents {
		return
	}
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a model bug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.q.push(ev)
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Defer schedules fn to run at the current instant, after all callbacks
// already queued for this instant. It is the simulation analogue of
// yielding to the scheduler.
func (e *Engine) Defer(fn func()) { e.At(e.now, fn) }

// Every runs fn every d, starting d from now: background work — metric
// sampling, sweeps, control loops — that lives only as long as the
// simulation does. After each tick the ticker re-arms only while the
// engine is Busy, so a run whose foreground work has drained
// terminates however many tickers are attached: each one sees the
// others' ticks as background, not as work. fn may schedule events;
// those are foreground and keep the ticker alive.
func (e *Engine) Every(d Time, fn func()) {
	var tick func()
	tick = func() {
		e.tickers--
		fn()
		if e.Busy() {
			e.tickers++
			e.After(d, tick)
		}
	}
	e.tickers++
	e.After(d, tick)
}

// Step executes the next event. It reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.q) == 0 {
		return false
	}
	ev := e.q.pop()
	e.now = ev.at
	fn := ev.fn
	e.recycle(ev) // recycled before fn so chains reuse the shell
	e.ran++
	fn()
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for len(e.q) > 0 {
		ev := e.q.pop()
		e.now = ev.at
		fn := ev.fn
		e.recycle(ev)
		e.ran++
		fn()
	}
	e.flushExecuted()
}

// RunUntil executes events with time ≤ deadline (including events that
// callbacks schedule at or before the deadline while it runs), then
// advances the clock to deadline. Events beyond it remain pending.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.q) > 0 && e.q[0].at <= deadline {
		ev := e.q.pop()
		e.now = ev.at
		fn := ev.fn
		e.recycle(ev)
		e.ran++
		fn()
	}
	if e.now < deadline {
		e.now = deadline
	}
	e.flushExecuted()
}

// nextTime returns the time of the earliest pending event, or MaxTime
// when none remain. The partitioned run loop (Group) uses it to compute
// the global safe horizon.
func (e *Engine) nextTime() Time {
	if len(e.q) == 0 {
		return MaxTime
	}
	return e.q[0].at
}

// runWindow executes every event strictly before limit, including
// events that callbacks schedule inside the window while it runs. The
// clock is left at the last executed event (not advanced to limit):
// windows are a synchronization construct, not a time span, and the
// next window's events may still land between now and limit. Executed
// counts are flushed to the process-wide meter by the group, once per
// round (Group.flushExecuted), so progress reporting stays live during
// long partitioned runs without every worker hitting the shared counter.
func (e *Engine) runWindow(limit Time) {
	for len(e.q) > 0 && e.q[0].at < limit {
		ev := e.q.pop()
		e.now = ev.at
		fn := ev.fn
		e.recycle(ev)
		e.ran++
		fn()
	}
}

// flushExecuted publishes this engine's progress to the process-wide
// counter. Called at the end of Run/RunUntil, never per event.
func (e *Engine) flushExecuted() {
	if d := e.ran - e.flushed; d > 0 {
		executedTotal.Add(d)
		e.flushed = e.ran
	}
}
