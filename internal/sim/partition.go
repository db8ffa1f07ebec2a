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
	"fmt"
	"sort"
	"sync"
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

// inbox buffers events injected into a partition by the others. It is
// the only synchronized structure in the group; the event hot path
// (heap push/pop, execution) never takes a lock. The mutex is touched
// once per cross-partition message and once per window drain — both
// orders of magnitude rarer than event execution.
type inbox struct {
	mu  sync.Mutex
	buf []xevent
}

// take removes and returns the buffered events.
func (ib *inbox) take() []xevent {
	ib.mu.Lock()
	evs := ib.buf
	ib.buf = nil
	ib.mu.Unlock()
	return evs
}

// Group is a set of engines advancing one simulation together. Build
// with NewGroup, attach one partition's models to each Engine(i), route
// every cross-partition interaction through Inject, then drive the
// whole group with RunUntil.
type Group struct {
	engs    []*Engine
	inboxes []inbox
	// xseq stamps outbound cross-partition events per source partition.
	// Entry i is only ever touched by the goroutine executing partition
	// i's window, so no synchronization is needed.
	xseq      []uint64
	lookahead Time
	rounds    uint64

	// onRound hooks run on the coordinator after each round's windows
	// complete (and before the next drain), with the round's window
	// limit. Every partition has executed exactly its events strictly
	// before the limit at that point, so hooks observe a consistent
	// cross-partition cut; the WaitGroup barrier orders their reads
	// after all window writes. The observability layer samples metrics
	// here instead of scheduling engine events, which would perturb the
	// window structure.
	onRound []func(limit Time)

	// limit is the current window bound, written by the coordinator
	// between rounds and read by workers during them (the work channel
	// send/receive pair orders the accesses).
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

	// deferred holds window-boundary actions registered from *inside*
	// window execution (see DeferBarrier): entry p is appended only by
	// the goroutine running partition p's window and promoted to the
	// barrier queue by the coordinator between rounds, in partition
	// order — the same single-writer-per-slot pattern as xseq.
	deferred [][]func()
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
	g := &Group{
		engs:     make([]*Engine, n),
		inboxes:  make([]inbox, n),
		xseq:     make([]uint64, n),
		deferred: make([][]func(), n),
	}
	for i := range g.engs {
		g.engs[i] = NewEngine(seed + uint64(i)*goldenGamma)
	}
	return g
}

// Partitions returns the number of partitions.
func (g *Group) Partitions() int { return len(g.engs) }

// Engine returns partition i's engine.
func (g *Group) Engine(i int) *Engine { return g.engs[i] }

// Lookahead returns the current synchronization lookahead.
func (g *Group) Lookahead() Time { return g.lookahead }

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
// drained, and no window goroutine is live — so fn may mutate
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
	g.deferred[part] = append(g.deferred[part], fn)
}

// promoteDeferred moves window-registered deferrals onto the barrier
// queue at the completed round's limit. Runs on the coordinator after
// the round's windows complete (the pool barrier orders the reads
// after the window writes); the barrier branch of the next loop
// iteration executes them — no pending event can precede the limit, so
// the actions observe exactly the pre-limit state.
func (g *Group) promoteDeferred(at Time) {
	for p := range g.deferred {
		for _, fn := range g.deferred[p] {
			g.AtBarrier(at, fn)
		}
		g.deferred[p] = g.deferred[p][:0]
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
	for _, s := range g.xseq {
		n += s
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
	g.xseq[src]++
	x := xevent{at: at, src: int32(src), seq: g.xseq[src], fn: fn}
	ib := &g.inboxes[dst]
	ib.mu.Lock()
	ib.buf = append(ib.buf, x)
	ib.mu.Unlock()
	return x.seq
}

// drain folds the partition's inbox into its heap. It runs on the
// coordinator between rounds — never concurrently with window
// execution — so a batch always holds exactly the events injected in
// prior rounds; draining from inside a window would let batch contents
// depend on worker timing, and the seq assignment with them. Within a
// batch, events are sorted by (at, src, seq) so the local seq order —
// and therefore execution order among simultaneous events — is a pure
// function of the traffic, not of which source goroutine appended
// first.
func (g *Group) drain(i int) {
	evs := g.inboxes[i].take()
	if len(evs) == 0 {
		return
	}
	sort.Slice(evs, func(a, b int) bool {
		x, y := &evs[a], &evs[b]
		if x.at != y.at {
			return x.at < y.at
		}
		if x.src != y.src {
			return x.src < y.src
		}
		return x.seq < y.seq
	})
	e := g.engs[i]
	for k := range evs {
		e.At(evs[k].at, evs[k].fn)
	}
}

// runWindow executes partition i's share of the current window (the
// inbox was already drained by the coordinator).
func (g *Group) runWindow(i int) {
	g.engs[i].runWindow(g.limit)
}

// Run drives the group until every partition drains.
func (g *Group) Run(workers int) { g.RunUntil(MaxTime, workers) }

// RunUntil advances the whole group until no pending event (in any heap
// or inbox) is at or before deadline, then normalizes every partition's
// clock to the deadline — the partitioned analogue of Engine.RunUntil,
// and on a single partition exactly Engine.RunUntil (barrier actions
// are engine events there, see AtBarrier). workers bounds the
// goroutines executing windows; ≤ 1 runs everything on the caller's
// goroutine with identical results.
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
	var pool *windowPool
	if workers > 1 {
		pool = g.startPool(workers)
		defer pool.stop()
	}
	for {
		// Fold last round's cross-partition traffic into the heaps, in
		// partition order, so every batch — and every seq assignment —
		// is fixed by the round structure alone.
		for i := range g.engs {
			g.drain(i)
		}
		// Safe horizon: the earliest event anywhere. Nothing executed
		// this round can create work before T + lookahead, so every
		// partition may run [.., T+lookahead) without coordination.
		T := MaxTime
		for i := range g.engs {
			if t := g.engs[i].nextTime(); t < T {
				T = t
			}
		}
		// Window-boundary barrier actions: the earliest queued action is
		// due once no pending event precedes it — prior windows were
		// capped at the barrier time, so every partition has executed
		// exactly the events strictly before it. Clocks are normalized
		// to B-1 first (executes nothing: no event is before B) so
		// actions observe a consistent Now and may schedule follow-on
		// events at or after B.
		if B := g.nextBarrier(); B != MaxTime && B <= deadline && B <= T {
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
		if B := g.nextBarrier(); limit > B {
			// Nobody may execute at or past a pending barrier action
			// before it runs. B > T here, so the window still advances.
			limit = B
		}
		g.limit = limit
		g.rounds++
		if pool != nil {
			pool.runRound()
		} else {
			for i := range g.engs {
				g.runWindow(i)
			}
		}
		if limit > g.floor {
			g.floor = limit
		}
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

// windowPool is a persistent worker pool executing one partition window
// per work item. Rebuilding goroutines every round would dominate the
// sub-millisecond windows the protocol produces.
type windowPool struct {
	g    *Group
	work chan int
	wg   sync.WaitGroup

	mu     sync.Mutex
	panicv any
}

func (g *Group) startPool(workers int) *windowPool {
	p := &windowPool{g: g, work: make(chan int)}
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *windowPool) worker() {
	for i := range p.work {
		func() {
			defer func() {
				if r := recover(); r != nil {
					p.mu.Lock()
					if p.panicv == nil {
						p.panicv = r
					}
					p.mu.Unlock()
				}
			}()
			p.g.runWindow(i)
		}()
		p.wg.Done()
	}
}

// runRound executes every partition's window on the pool and waits for
// the barrier. A panic inside any partition's events is re-raised on
// the coordinator goroutine, mirroring serial behavior.
func (p *windowPool) runRound() {
	p.wg.Add(len(p.g.engs))
	for i := range p.g.engs {
		p.work <- i
	}
	p.wg.Wait()
	p.mu.Lock()
	v := p.panicv
	p.mu.Unlock()
	if v != nil {
		panic(v)
	}
}

func (p *windowPool) stop() { close(p.work) }
