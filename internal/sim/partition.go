package sim

// Conservative parallel discrete-event simulation (PDES).
//
// A Group shards one simulation across several Engines ("partitions"),
// typically one per simulated node or group of nodes. Partitions
// advance concurrently inside bounded windows: every round, the group
// computes the earliest pending event time T across all partitions
// (heaps and cross-partition inboxes alike) and lets every partition
// execute events strictly before T + lookahead. Lookahead is the
// guaranteed minimum latency of any cross-partition interaction — for
// the netsim topology, the propagation + switch-fabric floor of the
// fastest link — so no event executed in a window can schedule work on
// another partition inside that same window. This is the classic
// window-based conservative protocol (the degenerate, all-to-all form
// of Chandy–Misra–Bryant null messages: the barrier is one implicit
// null message at time T+lookahead from everyone to everyone).
//
// Determinism: the window structure is a pure function of simulation
// state — T depends only on pending events, never on wall-clock or
// goroutine interleaving — and partitions share no mutable state, so a
// run with W workers executes exactly the events a run with 1 worker
// does, in the same per-partition order. Cross-partition events carry a
// (time, source partition, source sequence) stamp and are folded into
// the destination's heap in that order at window start, which pins the
// destination-side seq assignment regardless of arrival interleaving —
// the "deterministic seq-merge rule". Each partition seeds its own PRNG
// stream from the group seed, so random draws are partition-local and
// unaffected by scheduling.

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// goldenGamma is the splitmix64 increment; partition i derives its seed
// as seed + i·goldenGamma, so partition 0 matches a classic single
// engine built with NewEngine(seed).
const goldenGamma = 0x9e3779b97f4a7c15

// xevent is a cross-partition event in flight between two engines. The
// (at, src, seq) triple totally orders inbox contents, making the
// merge into the destination heap deterministic.
type xevent struct {
	at  Time
	src int32
	seq uint64
	fn  func()
}

// cacheLine is the coherence granule the partition record is laid out
// around.
const cacheLine = 64

// partition is one engine's share of the group's synchronization
// state: everything the round protocol keeps per partition, in one
// record of two cache lines so that no two goroutines write the same
// line during a window. The first line belongs to the *senders* — any
// worker whose window injects into this partition — and is the only
// synchronized structure in the group: the event hot path (heap
// push/pop, execution) never takes a lock, the mutex is touched once
// per cross-partition message and once per round. The second line
// belongs to whichever worker claimed this partition's window.
type partition struct {
	// mu guards in and inMin. in is the batch being filled: the events
	// injected since the coordinator last flipped the buffers. inMin is
	// the earliest timestamp in it (MaxTime when empty), so the safe
	// horizon needs no drain.
	mu    sync.Mutex
	in    []xevent
	inMin Time
	_     [cacheLine - 40]byte

	// out is the retired batch: flipped out of in by the coordinator
	// between rounds, folded into the heap (and emptied, keeping the
	// array) by the first thing the partition's next window does.
	out []xevent
	// xseq stamps outbound cross-partition events; only the goroutine
	// executing this partition's window touches it.
	xseq uint64
	// deferred holds window-boundary actions registered from *inside*
	// this partition's window (see DeferBarrier), promoted to the barrier
	// queue by the coordinator between rounds.
	deferred []func()
	// stamp is the last round whose window was claimed: a worker owns the
	// partition for round r once it moves stamp up to r.
	stamp atomic.Uint64
}

// Group is a set of engines advancing one simulation together. Build
// with NewGroup, attach one partition's models to each Engine(i), route
// every cross-partition interaction through Inject, then drive the
// whole group with RunUntil.
type Group struct {
	engs      []*Engine
	parts     []partition // parts[i] is engs[i]'s round state
	lookahead Time
	// rounds counts windows executed. It doubles as the round generation
	// the helpers watch and the partitions are stamped with, so it only
	// ever grows — across RunUntil calls too.
	rounds uint64

	// onRound hooks run on the coordinator after each round's windows
	// complete (and before the next flip), with the round's window
	// limit. Every partition has executed exactly its events strictly
	// before the limit at that point, so hooks observe a consistent
	// cross-partition cut; the round barrier orders their reads after
	// all window writes. The observability layer samples metrics here
	// instead of scheduling engine events, which would perturb the
	// window structure.
	onRound []func(limit Time)

	// limit is the current window bound, written by the coordinator
	// between rounds and read by workers during them (publishing the
	// round orders the accesses).
	limit Time

	// barriers is the coordinator-side action queue (see AtBarrier):
	// cluster-wide mutations that run between conservative windows, when
	// no partition is mid-window and every inbox is drained — unused on
	// a single partition, where actions are plain engine events. floor is
	// the commit point — every event strictly before it has executed —
	// so a new action before the floor is a model bug and panics. bseq
	// totally orders same-time actions by registration.
	barriers []barrierAction
	bseq     uint64
	floor    Time
}

// barrierAction is one queued window-boundary mutation.
type barrierAction struct {
	at  Time
	seq uint64
	fn  func()
}

// NewGroup creates n partitions. Partition i's PRNG stream is seeded
// seed + i·2⁶⁴/φ, so partition 0 reproduces NewEngine(seed) exactly and
// the streams are mutually decorrelated. The group starts with no
// lookahead; the topology layer must establish one (TightenLookahead)
// before a multi-partition run.
func NewGroup(seed uint64, n int) *Group {
	if n < 1 {
		n = 1
	}
	g := &Group{engs: make([]*Engine, n), parts: make([]partition, n)}
	for i := range g.engs {
		g.engs[i] = NewEngine(seed + uint64(i)*goldenGamma)
		g.parts[i].inMin = MaxTime
	}
	return g
}

// Partitions returns the number of partitions.
func (g *Group) Partitions() int { return len(g.engs) }

// Engine returns partition i's engine.
func (g *Group) Engine(i int) *Engine { return g.engs[i] }

// TightenLookahead lowers the group lookahead to l if it is currently
// larger (or unset). Every layer that can carry a cross-partition
// interaction calls this with its guaranteed minimum latency; the group
// keeps the floor. l must be positive — a zero-latency cross-partition
// path makes conservative parallel execution impossible.
func (g *Group) TightenLookahead(l Time) {
	if l <= 0 {
		panic("sim: lookahead must be positive")
	}
	if g.lookahead == 0 || l < g.lookahead {
		g.lookahead = l
	}
}

// Rounds returns the number of synchronization windows executed.
func (g *Group) Rounds() uint64 { return g.rounds }

// OnRound registers a coordinator hook invoked after each round's
// windows complete, with the round's window limit. Hooks run between
// rounds, never concurrently with window execution. Observability
// hooks must stay read-only with respect to simulation state — they
// must not schedule events, which would change the window structure
// and perturb results; cluster-visible mutations belong in AtBarrier /
// DeferBarrier actions. A single-partition group has no rounds, so its
// hooks never fire. Register before RunUntil.
func (g *Group) OnRound(fn func(limit Time)) {
	if fn == nil {
		return
	}
	g.onRound = append(g.onRound, fn)
}

// AtBarrier schedules fn to run on the coordinator at virtual time at,
// between conservative windows: when it runs, every partition has
// executed exactly the events strictly before at, every inbox is
// drained, and no window is in flight — so fn may mutate
// cluster-wide shared state (network loss tables, blocked-link maps,
// node up/down flags) race-free and deterministically at any worker
// count. Actions at the same time run in registration order, and run
// *before* any simulation event at that same timestamp (the window
// limit is capped at the earliest pending barrier time). Partition
// clocks are normalized to at-1 first, so fn may schedule follow-on
// engine events at or after at, and may chain further AtBarrier calls
// at ≥ at.
//
// Call AtBarrier before RunUntil or from coordinator context (another
// barrier action, an OnRound hook) — never from inside window
// execution, where it would race on the queue. Scheduling an action
// before the group's commit floor (a window already executed past it)
// panics, mirroring Engine.At on past times. Actions past the RunUntil
// deadline stay queued for a later run.
//
// On a single-partition group there is nothing to run between: the
// action is an ordinary event on the one engine (Engine.At), so it also
// fires under a plain Engine.Run and sees Now() == at. The one
// observable difference from N partitions is the tie rule — the action
// runs in engine seq order among same-time events instead of before
// all of them — which coincides whenever actions are registered before
// the events they tie with, as install-time fault arms are.
func (g *Group) AtBarrier(at Time, fn func()) {
	if fn == nil {
		panic("sim: nil barrier action")
	}
	if len(g.engs) == 1 {
		g.engs[0].At(at, fn)
		return
	}
	if at < g.floor {
		panic(fmt.Sprintf("sim: barrier action at %v is in the past (group floor %v)", at, g.floor))
	}
	g.bseq++
	g.barriers = append(g.barriers, barrierAction{at: at, seq: g.bseq, fn: fn})
}

// DeferBarrier queues fn to run at the next window boundary, callable
// from *inside* partition part's window execution — the one context
// AtBarrier forbids. This is how a mid-window event hands a
// cluster-visible mutation (an actor-table rewrite, a migration
// commit) to the coordinator: the fn is promoted to an AtBarrier
// action at the window's limit when the round completes, so it runs
// with no window in flight and every inbox drained, in a fixed order —
// partition, then registration — that is a pure function of the round
// structure and therefore identical at any worker count.
//
// On a single-partition group fn runs inline: there are no concurrent
// readers to defer around.
func (g *Group) DeferBarrier(part int, fn func()) {
	if fn == nil {
		panic("sim: nil deferred barrier action")
	}
	if len(g.engs) == 1 {
		fn()
		return
	}
	p := &g.parts[part]
	p.deferred = append(p.deferred, fn)
}

// promoteDeferred moves window-registered deferrals onto the barrier
// queue at the completed round's limit. Runs on the coordinator after
// the round's windows complete (the round barrier orders the reads
// after the window writes), in partition order; the barrier branch of
// the next loop iteration executes them — no pending event can precede
// the limit, so the actions observe exactly the pre-limit state.
func (g *Group) promoteDeferred(at Time) {
	for i := range g.parts {
		p := &g.parts[i]
		for _, fn := range p.deferred {
			g.AtBarrier(at, fn)
		}
		p.deferred = p.deferred[:0]
	}
}

// nextBarrier returns the earliest queued barrier time, MaxTime if none.
func (g *Group) nextBarrier() Time {
	b := MaxTime
	for i := range g.barriers {
		if g.barriers[i].at < b {
			b = g.barriers[i].at
		}
	}
	return b
}

// runBarrierActions pops and runs every action queued at exactly time
// at, in registration order; actions chained at the same time by a
// running action are picked up in the same pass.
func (g *Group) runBarrierActions(at Time) {
	for {
		best := -1
		for i := range g.barriers {
			if g.barriers[i].at == at && (best < 0 || g.barriers[i].seq < g.barriers[best].seq) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		fn := g.barriers[best].fn
		g.barriers = append(g.barriers[:best], g.barriers[best+1:]...)
		fn()
	}
}

// Crossed returns the number of cross-partition events injected. Only
// meaningful between rounds (it reads the per-source stamps without
// synchronization).
func (g *Group) Crossed() uint64 {
	var n uint64
	for i := range g.parts {
		n += g.parts[i].xseq
	}
	return n
}

// ExecutedEvents sums executed-event counts across partitions.
func (g *Group) ExecutedEvents() uint64 {
	var n uint64
	for _, e := range g.engs {
		n += e.Executed()
	}
	return n
}

// Inject schedules fn at absolute time at on partition dst, from code
// currently executing on partition src. Same-partition injects are
// plain At calls. Cross-partition injects must respect the lookahead
// contract — at ≥ src's now + lookahead — which netsim's latency floor
// guarantees by construction; violating it means the destination may
// already have executed past at, so it panics loudly instead of
// corrupting the timeline.
//
// The returned value is the (src-local) sequence stamp assigned to a
// cross-partition event — the seq of the deterministic (at, src, seq)
// merge order — or 0 for a same-partition inject. The tracing layer
// annotates handoff spans with it so the merged artifact can pair the
// two halves of every crossing.
func (g *Group) Inject(src, dst int, at Time, fn func()) uint64 {
	if src == dst {
		g.engs[src].At(at, fn)
		return 0
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	if now := g.engs[src].now; at < now+g.lookahead {
		panic(fmt.Sprintf("sim: cross-partition event at %v from partition %d (now %v) violates lookahead %v",
			at, src, now, g.lookahead))
	}
	g.parts[src].xseq++
	x := xevent{at: at, src: int32(src), seq: g.parts[src].xseq, fn: fn}
	p := &g.parts[dst]
	p.mu.Lock()
	p.in = append(p.in, x)
	p.inMin = min(p.inMin, at)
	p.mu.Unlock()
	return x.seq
}

// flip retires every inbox's batch — the events injected since the last
// flip become the batch the partition's next window folds in — and
// returns the earliest timestamp among them, the inboxes' term of the
// safe horizon. It runs on the coordinator with no window in flight, so
// a batch always holds exactly the events injected in prior rounds: its
// membership is a pure function of the round structure, never of worker
// timing. O(1) per partition; the arrays are swapped, not copied.
func (g *Group) flip() Time {
	T := MaxTime
	for i := range g.parts {
		p := &g.parts[i]
		p.mu.Lock()
		if len(p.in) > 0 {
			// out is empty here: every window starts by draining it, and
			// the two paths that skip the windows drain it serially.
			p.in, p.out = p.out, p.in
			T = min(T, p.inMin)
			p.inMin = MaxTime
		}
		p.mu.Unlock()
	}
	return T
}

// drain folds partition i's retired batch into its heap, ahead of every
// event of the window that follows. Events are sorted by (at, src, seq)
// first so the local seq order — and therefore execution order among
// simultaneous events — is a pure function of the traffic, not of which
// source goroutine appended first. The batch is zeroed (the closures
// are the heap's now) and its array kept for the next flip.
func (g *Group) drain(i int) {
	p := &g.parts[i]
	if len(p.out) == 0 {
		return
	}
	slices.SortFunc(p.out, func(x, y xevent) int {
		if c := cmp.Compare(x.at, y.at); c != 0 {
			return c
		}
		if c := cmp.Compare(x.src, y.src); c != 0 {
			return c
		}
		return cmp.Compare(x.seq, y.seq)
	})
	e := g.engs[i]
	for k := range p.out {
		e.At(p.out[k].at, p.out[k].fn)
	}
	clear(p.out)
	p.out = p.out[:0]
}

// drainAll folds every retired batch into its heap on the coordinator.
// The run loop calls it wherever code other than a window runs next —
// barrier actions, which may schedule onto partitions, and the caller
// after RunUntil returns — so that such events take their heap seq
// after the inbox events already pending, exactly as if the drain ran
// between rounds.
func (g *Group) drainAll() {
	for i := range g.parts {
		g.drain(i)
	}
}

// runWindow executes partition i's share of the current window, on
// whichever worker claimed it: fold in the retired inbox batch, then
// run every event strictly before the limit.
func (g *Group) runWindow(i int) {
	g.drain(i)
	g.engs[i].runWindow(g.limit)
}

// flushExecuted publishes the round's progress to the process-wide
// meter: one add per round, from the coordinator, so the workers never
// contend on the shared counter.
func (g *Group) flushExecuted() {
	var d uint64
	for _, e := range g.engs {
		d += e.ran - e.flushed
		e.flushed = e.ran
	}
	if d > 0 {
		executedTotal.Add(d)
	}
}

// Run drives the group until every partition drains.
func (g *Group) Run(workers int) { g.RunUntil(MaxTime, workers) }

// RunUntil advances the whole group until no pending event (in any heap
// or inbox) is at or before deadline, then normalizes every partition's
// clock to the deadline — the partitioned analogue of Engine.RunUntil,
// and on a single partition exactly Engine.RunUntil (barrier actions
// are engine events there, see AtBarrier). workers bounds the
// goroutines executing windows, the caller's included; ≤ 1 runs
// everything on the caller's goroutine with identical results.
func (g *Group) RunUntil(deadline Time, workers int) {
	if len(g.engs) == 1 {
		g.engs[0].RunUntil(deadline)
		return
	}
	if g.lookahead <= 0 {
		panic("sim: multi-partition run requires a lookahead (no cross-partition latency floor established)")
	}
	if workers > len(g.engs) {
		workers = len(g.engs)
	}
	var hs *helpers
	if workers > 1 {
		hs = g.startHelpers(workers)
		defer hs.stop()
	}
	for {
		// Safe horizon: the earliest event anywhere — in a heap, or in
		// the cross-partition batches retired just now, which the windows
		// fold in themselves. Nothing executed this round can create work
		// before T + lookahead, so every partition may run
		// [.., T+lookahead) without coordination.
		T := g.flip()
		for _, e := range g.engs {
			T = min(T, e.nextTime())
		}
		// Window-boundary barrier actions: the earliest queued action is
		// due once no pending event precedes it — prior windows were
		// capped at the barrier time, so every partition has executed
		// exactly the events strictly before it. Clocks are normalized
		// to B-1 first (executes nothing: no event is before B) so
		// actions observe a consistent Now and may schedule follow-on
		// events at or after B.
		B := g.nextBarrier()
		if B != MaxTime && B <= deadline && B <= T {
			g.drainAll()
			if B > 0 {
				for _, e := range g.engs {
					e.RunUntil(B - 1)
				}
			}
			g.floor = B
			g.runBarrierActions(B)
			continue // actions may add events, actions, or inbox traffic
		}
		if T > deadline || T == MaxTime {
			g.drainAll()
			break
		}
		limit := T + g.lookahead
		if limit < T {
			limit = MaxTime // overflow saturation
		}
		if deadline < MaxTime && limit > deadline+1 {
			// Past the deadline the window bound is irrelevant; capping
			// keeps post-deadline events pending, like Engine.RunUntil.
			limit = deadline + 1
		}
		if limit > B {
			// Nobody may execute at or past a pending barrier action
			// before it runs. B > T here, so the window still advances.
			limit = B
		}
		g.limit = limit
		g.rounds++
		if hs != nil {
			hs.runRound()
		} else {
			for i := range g.engs {
				g.runWindow(i)
			}
		}
		if limit > g.floor {
			g.floor = limit
		}
		g.flushExecuted()
		g.promoteDeferred(limit)
		for _, fn := range g.onRound {
			fn(limit)
		}
	}
	// Normalize clocks and flush executed counters; every remaining
	// event is past the deadline, so this executes nothing new.
	for _, e := range g.engs {
		e.RunUntil(deadline)
	}
	g.bumpFloor(deadline)
}

// bumpFloor commits the floor past a completed RunUntil deadline: the
// clocks are normalized to the deadline, so any later barrier action at
// or before it would run out of order.
func (g *Group) bumpFloor(deadline Time) {
	f := deadline + 1
	if f < deadline {
		f = MaxTime
	}
	if f > g.floor {
		g.floor = f
	}
}

// Window workers. A round on a dense topology is tens of microseconds
// of events, so how the workers meet at its two ends decides whether a
// second core pays: a worker that blocks between rounds (on a channel,
// a WaitGroup) spends most of a core in the scheduler. So the caller of
// RunUntil is worker 0 and the other W-1 ("helpers") poll: a round is
// published by storing its number in one atomic, every worker —
// coordinator included — claims partitions by moving their stamp up to
// that number, and completion is one atomic counter the coordinator
// spins on. A worker claims its own stripe first (i ≡ w mod W), so a
// partition's heap, stations and free lists stay in one core's cache
// from round to round, and then whatever is still unclaimed, so nobody
// waits for a worker that is late, parked or not scheduled: the barrier
// only ever waits for windows in progress. This is the shape of iPipe's
// own NIC-side runtime (§3.2): run-to-completion cores that poll, keep
// their own queue and take a neighbour's work only when idle.
const (
	// spinBudget is how many polls of the round number an idle helper
	// makes before it parks on the condition variable, so a helper that
	// has no processor's worth of work (more workers than Ps, a long
	// barrier action, a long serial stretch) stops costing one.
	spinBudget = 1 << 14
	// yieldEvery is how many polls a waiting worker makes between calls
	// to runtime.Gosched: with fewer Ps than workers the goroutine being
	// waited for needs this one's P.
	yieldEvery = 1 << 7
	// stopRound is the round number that tells helpers to exit.
	stopRound = ^uint64(0)
)

// helpers is the set of goroutines executing windows beside the
// coordinator for the length of one RunUntil.
type helpers struct {
	g       *Group
	workers int // coordinator included

	// round is the generation helpers wait on: the number of the round
	// in flight (the group's, so it never repeats across RunUntil calls),
	// or stopRound. Stored under mu so a parking helper cannot miss it.
	round atomic.Uint64
	_     [cacheLine - 8]byte
	// done counts the windows completed this round. On its own line: it
	// is written by every worker while helpers poll round.
	done atomic.Int32
	_    [cacheLine - 4]byte

	mu   sync.Mutex
	cond sync.Cond // signals a change of round to parked helpers
	// panicv is the panic raised by the events of partition panicPart,
	// the lowest-numbered one that panicked this round.
	panicv    any
	panicPart int

	wg sync.WaitGroup // joins the helpers in stop
}

func (g *Group) startHelpers(workers int) *helpers {
	h := &helpers{g: g, workers: workers}
	h.cond.L = &h.mu
	h.round.Store(g.rounds)
	h.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go h.help(w, g.rounds)
	}
	return h
}

// help is helper w's loop: wait for a round other than the one last
// seen, sweep it, repeat until stopped.
func (h *helpers) help(w int, seen uint64) {
	defer h.wg.Done()
	for {
		seen = h.await(seen)
		if seen == stopRound {
			return
		}
		h.sweep(w, seen)
	}
}

// await returns the published round once it differs from seen: polling
// for spinBudget iterations (the next round is normally microseconds
// away), then parked.
func (h *helpers) await(seen uint64) uint64 {
	for i := 1; i <= spinBudget; i++ {
		if r := h.round.Load(); r != seen {
			return r
		}
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.round.Load() == seen {
		h.cond.Wait()
	}
	return h.round.Load()
}

// publish makes round r (or stopRound) visible to polling and parked
// helpers alike.
func (h *helpers) publish(r uint64) {
	h.mu.Lock()
	h.round.Store(r)
	h.mu.Unlock()
	h.cond.Broadcast()
}

// stop ends the helpers and waits for them: a helper still finishing a
// sweep must not outlive the RunUntil that started it.
func (h *helpers) stop() {
	h.publish(stopRound)
	h.wg.Wait()
}

// runRound executes every partition's window — the coordinator working
// as worker 0 — and waits until all have completed. A panic inside any
// partition's events is re-raised here, on the coordinator goroutine,
// once the round's other windows have finished, mirroring serial
// behavior.
func (h *helpers) runRound() {
	h.done.Store(0)
	h.publish(h.g.rounds)
	h.sweep(0, h.g.rounds)
	for i := 1; h.done.Load() != int32(len(h.g.parts)); i++ {
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	if h.panicv != nil {
		panic(h.panicv)
	}
}

// sweep runs every window of the round that worker w can claim: its own
// stripe, then the rest. A sweep for a round that has since completed
// (a helper that was slow to start) finds every stamp at or past its
// round and claims nothing.
func (h *helpers) sweep(w int, round uint64) {
	n := len(h.g.parts)
	for i := w; i < n; i += h.workers {
		h.claim(i, round)
	}
	for i := 0; i < n; i++ {
		if i%h.workers != w {
			h.claim(i, round)
		}
	}
}

// claim runs partition i's window if no other worker has taken it this
// round. Winning the stamp means the round is still in flight (it
// cannot complete without this window), so g.limit is this round's.
func (h *helpers) claim(i int, round uint64) {
	p := &h.g.parts[i]
	if s := p.stamp.Load(); s >= round || !p.stamp.CompareAndSwap(s, round) {
		return
	}
	h.window(i)
	h.done.Add(1)
}

// window runs partition i's window, keeping a panic for runRound.
func (h *helpers) window(i int) {
	defer func() {
		if r := recover(); r != nil {
			h.mu.Lock()
			if h.panicv == nil || i < h.panicPart {
				h.panicv, h.panicPart = r, i
			}
			h.mu.Unlock()
		}
	}()
	h.g.runWindow(i)
}
