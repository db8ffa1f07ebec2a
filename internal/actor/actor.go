// Package actor implements iPipe's actor programming model (§3.1).
//
// An actor is a computation agent with self-contained private state that
// reacts to messages: it may mutate its own state and send asynchronous
// messages to other actors; actors never share memory. Each actor
// carries an init handler, an exec handler, a mailbox (a FIFO of pending
// messages), an exec lock deciding whether it may run on several cores
// at once, and runtime bookkeeping (dispersion statistics used by the
// scheduler, and its place in the actor table).
package actor

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/stats"
)

// ID identifies an actor uniquely within a deployment.
type ID uint32

// Kind tags message types; applications define their own kinds.
type Kind uint16

// Msg is an asynchronous message between actors. Every hop copies it
// and every queue slot holds one, so its fields are ordered to pack into
// 80 bytes with no padding (TestMsgLayout pins the size): the small
// scalars share the first word with Src, Dst and WireSize, and the
// pointer-bearing fields follow (DESIGN.md §4).
type Msg struct {
	Kind Kind
	// Via records how the message reached the current runtime, which
	// determines the I/O cost charged on delivery.
	Via Via
	// Class is the traffic class (qos.Class: data/control/telemetry)
	// steering the message through the node-front priority lanes. The
	// zero value is the data class, so untagged traffic is unchanged.
	Class uint8
	Src   ID
	Dst   ID
	// WireSize is the packet size this message occupied on the network
	// (0 for NIC/host-internal messages); the scheduler tracks request
	// sizes per actor from it (§3.2.3).
	WireSize int32
	// Data is the application payload. No one rewrites a payload after
	// Send, neither the sender nor the runtime, so a receiver may keep
	// views of it for as long as it keeps the message (DESIGN.md §4).
	Data []byte
	// FlowID steers dispatching.
	FlowID uint64
	// ArrivedAt is when the message entered the runtime (for sojourn
	// time accounting: queueing + execution).
	ArrivedAt sim.Time
	// Reply, when non-nil, lets infrastructure route a response to an
	// external client (e.g. the workload generator) without an actor ID.
	Reply func(resp Msg)
	// Origin is the network node the request entered from; Reply routes
	// the response back there.
	Origin string
}

// MsgFIFO is the message queue of the per-message path — scheduler
// ingress queues, mailboxes, host core queues: head-indexed, so popping
// neither pins consumed messages nor forces the next burst to reallocate.
type MsgFIFO = sim.FIFO[Msg]

// Via enumerates message ingress paths.
type Via uint8

// Ingress paths: from the network wire, over the PCIe message rings, or
// locally (same execution zone).
const (
	ViaLocal Via = iota
	ViaWire
	ViaRing
)

// Ctx is the capability surface handed to actor handlers. It is
// implemented by the runtime in internal/core; keeping it an interface
// here avoids a dependency cycle and keeps handlers testable with fakes.
type Ctx interface {
	// Now returns current virtual time.
	Now() sim.Time
	// Send delivers a message asynchronously to another actor, wherever
	// it lives (same core, other side of PCIe, or across the network).
	Send(dst ID, m Msg)
	// Reply responds to the client that originated the current request.
	Reply(m Msg)

	// Object store (DMO) operations; see internal/dmo for semantics.
	Alloc(size int) (uint64, error)
	Free(obj uint64) error
	// ObjRead is the addressed read of Table 4: it returns a view of
	// the object's bytes, not a copy. The view is a borrow. It is valid
	// until the handler returns, and its contents only until the handler
	// next writes, moves or frees the object; the handler must not write
	// through it (ObjWrite is the way in) and cannot grow it (its
	// capacity is its length). Whatever outlives the handler — a value
	// sent in a reply, kept in actor state, captured by a closure — must
	// be copied first. Under the invariant checker the view is a private
	// copy overwritten with a sentinel when the handler returns, so a
	// handler that breaks the rule reads garbage at once.
	ObjRead(obj uint64, off, n int) ([]byte, error)
	ObjWrite(obj uint64, off int, p []byte) error
	// ObjMigrate moves one object to the other side of the PCIe bus
	// (Table 4's dmo_migrate; the DT coordinator ships its full log
	// object to the host before checkpointing). It returns the bytes
	// moved. Accessing the object afterwards from this side fails until
	// it migrates back.
	ObjMigrate(obj uint64) (int, error)

	// Accel invokes a named hardware accelerator over n bytes at the
	// given batch size and returns its modeled latency; ok is false when
	// this execution zone has no such unit (host cores compute inline
	// instead).
	Accel(name string, bytes, batch int) (sim.Time, bool)
}

// Handler executes one message. It performs the actor's real work and
// returns the modeled execution cost of this invocation on the reference
// core (the 1.2GHz cnMIPS of the CN2350); the runtime scales the charge
// to whichever core actually runs it.
type Handler func(ctx Ctx, m Msg) sim.Time

// Actor is the unit of offloading.
type Actor struct {
	ID   ID
	Name string
	// OnInit initializes private state (allocating DMOs etc).
	OnInit func(ctx Ctx)
	// OnMessage is the exec handler.
	OnMessage Handler
	// Exclusive is the exec lock: when true the actor must not run on
	// multiple cores concurrently.
	Exclusive bool
	// MemBound in [0,1] captures how memory-bound the actor's work is;
	// it controls how much faster a host core runs it (I3).
	MemBound float64
	// Pinned constrains placement: actors that need host-only resources
	// (persistent storage for the LSM SSTable and logging actors) set
	// PinHost; PinNIC exists for symmetry and tests.
	PinHost bool
	PinNIC  bool
	// Shard tags the actor with its scale-out shard index so spans and
	// metrics attribute work per shard; only meaningful when Sharded is
	// set, since shard 0 is a valid index.
	Shard   int32
	Sharded bool

	// Mailbox holds messages awaiting DRR service (FCFS-mode messages
	// are run to completion straight off the shared queue).
	Mailbox Mailbox

	// Scheduler bookkeeping (§3.2.3): per-actor EWMA of request sojourn
	// (queueing + execution, driving the dispersion measure µ+3σ), of
	// pure execution latency (driving the DRR deficit gate, ALG 2's
	// exe_lat), request sizes, and invocation rate.
	ExecStats    stats.EWMA
	ServiceStats stats.EWMA
	SizeStats    stats.EWMA

	// InDRR marks the actor as downgraded to the DRR runnable queue.
	InDRR bool
	// Deficit is the actor's DRR deficit counter in nanoseconds.
	Deficit sim.Time

	// State tracks the migration protocol phase (§3.2.5).
	State MigState

	// running counts in-flight executions, enforcing Exclusive.
	running int
}

// MigState is the 4-phase migration automaton state of §3.2.5.
type MigState uint8

// Migration states: a stable actor is Stable; Prepare stops intake,
// Ready has drained execution, Gone means state moved to the other
// side, Clean means buffered requests were forwarded.
const (
	Stable MigState = iota
	Prepare
	Ready
	Gone
	Clean
)

// String renders the migration state.
func (s MigState) String() string {
	switch s {
	case Stable:
		return "Stable"
	case Prepare:
		return "Prepare"
	case Ready:
		return "Ready"
	case Gone:
		return "Gone"
	case Clean:
		return "Clean"
	default:
		return fmt.Sprintf("MigState(%d)", uint8(s))
	}
}

// InFlight reports whether the actor is mid-migration (any state past
// Stable): its placement is being rewritten by the §3.2.5 machinery,
// so bulk placement changes (crash re-homing, forced migrations) must
// skip it and let the in-flight protocol's commit finish the hand-off.
func (s MigState) InFlight() bool { return s != Stable }

// Label names the actor in traces: its Name, else "actor <ID>".
func (a *Actor) Label() string {
	if a.Name != "" {
		return a.Name
	}
	return fmt.Sprintf("actor %d", a.ID)
}

// Load returns average execution latency scaled by invocation frequency,
// the quantity the migration policy ranks actors by (§3.2.5).
func (a *Actor) Load() float64 { return a.ExecStats.Mean() * float64(a.ExecStats.Count()) }

// TryAcquire attempts to start an execution, honoring the exec lock.
func (a *Actor) TryAcquire() bool {
	if a.Exclusive && a.running > 0 {
		return false
	}
	a.running++
	return true
}

// Release ends an execution.
func (a *Actor) Release() {
	if a.running == 0 {
		panic("actor: Release without Acquire")
	}
	a.running--
}

// Running reports in-flight executions.
func (a *Actor) Running() int { return a.running }

// Observe folds one completed request into the actor's statistics.
func (a *Actor) Observe(sojourn, service sim.Time, wireSize int) {
	if a.ExecStats.Alpha == 0 {
		a.ExecStats.Alpha = 0.05
	}
	if a.ServiceStats.Alpha == 0 {
		a.ServiceStats.Alpha = 0.05
	}
	if a.SizeStats.Alpha == 0 {
		a.SizeStats.Alpha = 0.05
	}
	a.ExecStats.Observe(sojourn.Micros())
	if service > 0 {
		a.ServiceStats.Observe(service.Micros())
	}
	if wireSize > 0 {
		a.SizeStats.Observe(float64(wireSize))
	}
}

// Mailbox is the actor's FIFO of pending messages. The hardware traffic
// manager (or the software shuffle layer) makes concurrent producers
// safe in the real system; in simulation ordering is the engine's.
type Mailbox struct {
	q MsgFIFO
}

// Push appends a message.
func (mb *Mailbox) Push(m Msg) { mb.q.Push(m) }

// Pop removes the oldest message.
func (mb *Mailbox) Pop() (Msg, bool) { return mb.q.Pop() }

// Len returns the backlog.
func (mb *Mailbox) Len() int { return mb.q.Len() }

// Drain removes and returns all pending messages (used by migration to
// forward buffered requests).
func (mb *Mailbox) Drain() []Msg { return mb.q.Drain() }

// Ref locates an actor in the deployment: which node, and which side of
// the PCIe bus. The actor table (actor_tbl) maps IDs to Refs.
type Ref struct {
	Node  string
	OnNIC bool
}

// Table is the actor table shared by a deployment's runtimes. It is
// copy-on-write: Lookup/Len read an immutable snapshot through an
// atomic pointer, while writers clone the map under a mutex and swap
// the pointer. Reads therefore never block and never race, which is
// what lets a partitioned (PDES) run keep the table shared while
// placements are rewritten: remote partitions only ever consume the
// immutable Node field of a Ref, so a read that lands on either side
// of a swap is equally correct. Under PDES the writers themselves are
// additionally serialized at conservative-window boundaries — watchdog
// kills drain at round hooks and migration/re-homing commits run as
// deferred barrier actions (core/migrate.go) — so the table is
// single-writer at any worker count and the write *order* is a pure
// function of simulation state. Writes are rare (registration,
// migrations, failures, kills) next to per-message lookups, so the
// clone cost is irrelevant.
type Table struct {
	refs atomic.Pointer[map[ID]Ref]
	mu   sync.Mutex // serializes writers
}

// NewTable returns an empty actor table.
func NewTable() *Table {
	t := &Table{}
	m := map[ID]Ref{}
	t.refs.Store(&m)
	return t
}

// Set records an actor's location.
func (t *Table) Set(id ID, ref Ref) {
	t.mu.Lock()
	old := *t.refs.Load()
	m := make(map[ID]Ref, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[id] = ref
	t.refs.Store(&m)
	t.mu.Unlock()
}

// Lookup finds an actor's location.
func (t *Table) Lookup(id ID) (Ref, bool) {
	r, ok := (*t.refs.Load())[id]
	return r, ok
}

// Delete removes an actor (deregistration).
func (t *Table) Delete(id ID) {
	t.mu.Lock()
	old := *t.refs.Load()
	m := make(map[ID]Ref, len(old))
	for k, v := range old {
		if k != id {
			m[k] = v
		}
	}
	t.refs.Store(&m)
	t.mu.Unlock()
}
