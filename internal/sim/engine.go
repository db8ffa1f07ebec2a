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

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time as a duration for readability.
func (t Time) String() string { return time.Duration(t).String() }

// Micros builds a virtual time from floating-point microseconds.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

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
// usable; construct with NewEngine. A scheduled event always fires, as
// in iPipe's run-to-completion runtime (§3.2): timeouts check a done
// flag when they fire instead of being revoked.
type Engine struct {
	now     Time
	seq     uint64     // stamps far events
	far     eventQueue // events at or beyond now+wheelSpan
	tickers int        // pending events that are Every ticks
	rng     *Rand
	ran     uint64 // events executed
	flushed uint64 // portion of ran already added to executedTotal
	near    wheel  // events before now+wheelSpan
}

// NewEngine returns an engine at time zero with a deterministic PRNG
// seeded by seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rng: NewRand(seed)}
	e.near.nodes = make([]wnode, 1, 64) // node 0 is the wheel's nil
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic PRNG.
func (e *Engine) Rand() *Rand { return e.rng }

// Executed reports the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.ran }

// Pending reports the number of scheduled (not yet fired) events.
func (e *Engine) Pending() int { return e.near.n + len(e.far) }

// Busy reports whether any event other than an Every tick is pending:
// the simulation still has foreground work.
func (e *Engine) Busy() bool { return e.Pending() > e.tickers }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a model bug.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	if t-e.now < wheelSpan {
		e.near.push(t, fn)
		return
	}
	e.far.push(event{at: t, seq: e.seq, fn: fn})
	e.seq++
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

// migrate moves the far events the clock has brought within the wheel's
// span onto their slots, in (at, seq) order. It runs whenever the clock
// advances.
func (e *Engine) migrate() {
	for len(e.far) > 0 && e.far[0].at-e.now < wheelSpan {
		ev := e.far.pop()
		e.near.push(ev.at, ev.fn)
	}
}

// take removes the earliest pending event if it is due at or before
// deadline, advances the clock to it and returns its callback; it
// returns nil, leaving the clock alone, otherwise.
func (e *Engine) take(deadline Time) func() {
	if e.Pending() == 0 {
		return nil
	}
	at := e.nextTime()
	if at > deadline {
		return nil
	}
	if at != e.now { // the wheel is empty, or its first slot is ahead
		e.now = at
		e.migrate()
	}
	return e.near.pop(at)
}

// Step executes the next event. It reports false when no events remain.
func (e *Engine) Step() bool {
	fn := e.take(MaxTime)
	if fn != nil {
		e.ran++
		fn()
	}
	return fn != nil
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for fn := e.take(MaxTime); fn != nil; fn = e.take(MaxTime) {
		e.ran++
		fn()
	}
	e.flushExecuted()
}

// RunUntil executes events with time ≤ deadline (including events that
// callbacks schedule at or before the deadline while it runs), then
// advances the clock to deadline. Events beyond it remain pending.
func (e *Engine) RunUntil(deadline Time) {
	for fn := e.take(deadline); fn != nil; fn = e.take(deadline) {
		e.ran++
		fn()
	}
	if e.now < deadline {
		e.now = deadline
		e.migrate()
	}
	e.flushExecuted()
}

// nextTime returns the time of the earliest pending event, or MaxTime
// when none remain. The partitioned run loop (Group) uses it to compute
// the global safe horizon.
func (e *Engine) nextTime() Time {
	if e.near.n > 0 {
		return e.near.next(e.now)
	}
	if len(e.far) > 0 {
		return e.far[0].at
	}
	return MaxTime
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
	for fn := e.take(limit - 1); fn != nil; fn = e.take(limit - 1) {
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
