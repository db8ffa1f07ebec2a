// Package deploy stands each application up from a declarative spec
// struct (RKVSpec, DTSpec, RTASpec, FirewallSpec, IPSecSpec) that
// bundles its nodes, actor IDs and placement with the embedded Common
// policy block: Placement, an optional fault.Schedule and an optional
// qos.Tenancy. Each spec's Validate checks it without deploying
// anything, and its Deploy stands it up and returns the typed
// deployment.
//
// The specs also wire the recovery machinery: an RKVSpec installs a
// leader-failover monitor that triggers a Paxos election when the
// leader's node dies, and a DTSpec with a TxnTimeout arms the
// coordinator's sweep that aborts transactions stranded by a
// participant death. Both are passive until a failure actually occurs.
package deploy

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/apps/dt"
	"repro/internal/apps/nf"
	"repro/internal/apps/rkv"
	"repro/internal/apps/rta"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/qos"
	"repro/internal/shard"
	"repro/internal/sim"
)

// Placement says where an application's offloadable actors run.
// Host-pinned actors (SSTable readers, compactors, loggers) ignore it.
type Placement struct {
	// OnNIC offloads the offloadable actors to the SmartNIC where the
	// node has one; false keeps everything on the host.
	OnNIC bool
}

// NIC and Host are the two common placements.
var (
	NIC  = Placement{OnNIC: true}
	Host = Placement{OnNIC: false}
)

// FailoverPolicy controls the RKV leader-failover monitor.
type FailoverPolicy struct {
	// Detect models the failure detector's timeout: how long after a
	// leader-node death the election is triggered (0 = 200µs).
	Detect sim.Time
	// Disabled turns the monitor off entirely.
	Disabled bool
}

// defaultDetect is the default failure-detection delay.
const defaultDetect = 200 * sim.Microsecond

// --- RKV --------------------------------------------------------------

// RKVSpec deploys the replicated key-value store (Multi-Paxos + LSM),
// either as one replica group over Nodes (the paper's §5.1 setup) or —
// with Shards > 1 — as a sharded scale-out: one independent Paxos group
// per shard, leaders rotated across the node pool, with a
// consistent-hash router directing keys to groups.
type RKVSpec struct {
	// Common is the shared policy block. Placement offloads consensus
	// and Memtable actors when OnNIC (SSTable reader and compactor stay
	// host-pinned).
	Common
	// Failover configures the leader-failover monitor of every group.
	Failover FailoverPolicy
	// Nodes is the node pool. A single-group deployment replicates on
	// every node (the first starts as Paxos leader); a sharded one
	// spreads each group's Replicas over the pool, shard s leading on
	// Nodes[s % len(Nodes)].
	Nodes []*core.Node
	// BaseID is the first actor ID; group g's replica k uses
	// BaseID + g·4·len(Nodes) + 4k .. +4k+3.
	BaseID actor.ID
	// MemLimit is the Memtable size triggering minor compaction.
	MemLimit int
	// Shards splits the key space over that many independent replica
	// groups (0 or 1 = the classic single group).
	Shards int
	// Replicas bounds each group's replication factor. 0 replicates a
	// single group on every node and defaults to min(3, len(Nodes)) when
	// sharded.
	Replicas int
	// ShardVNodes sets the router's virtual nodes per shard
	// (0 = shard.DefaultVNodes).
	ShardVNodes int
}

// RKV is a deployed replica group set plus its recovery machinery. The
// embedded Deployment is Groups[0], so single-group callers keep their
// old surface; sharded callers route through ShardFor/LeaderFor.
type RKV struct {
	*rkv.Deployment
	// groups holds one replica group per shard.
	groups []*rkv.Deployment
	// Router maps keys to shards (nil is never returned; a single-group
	// deployment gets a one-shard ring).
	Router   *shard.Ring
	spec     RKVSpec
	Injector *fault.Injector
	// QoS is the installed tenancy runtime (nil when the spec had no
	// Tenancy block).
	QoS *qos.Runtime
	// Elections counts failover-triggered elections across all groups.
	Elections uint64
}

// validate checks the spec without deploying anything. Its errors name
// the spec and the offending field; it never panics.
func (s RKVSpec) validate() error {
	if len(s.Nodes) == 0 {
		return &validationError{spec: "RKVSpec", field: "Nodes", reason: "needs at least one node"}
	}
	if s.Replicas > len(s.Nodes) {
		return &validationError{spec: "RKVSpec", field: "Replicas",
			reason: fmt.Sprintf("wants %d replicas from %d nodes", s.Replicas, len(s.Nodes))}
	}
	if s.Shards < 0 {
		return &validationError{spec: "RKVSpec", field: "Shards", reason: "must be >= 0"}
	}
	return s.Common.validate("RKVSpec")
}

// Deploy stands up the spec.
func (s RKVSpec) Deploy() (*RKV, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	shards := s.Shards
	if shards < 1 {
		shards = 1
	}
	reps := s.Replicas
	if reps <= 0 {
		if shards > 1 {
			reps = 3
			if reps > len(s.Nodes) {
				reps = len(s.Nodes)
			}
		} else {
			reps = len(s.Nodes) // one group over every node
		}
	}
	cl := s.Nodes[0].Cluster()
	out := &RKV{spec: s}
	for g := 0; g < shards; g++ {
		// Rotate each group's replica set so leaders (replica 0) land on
		// distinct nodes and follower load spreads evenly.
		nodes := make([]*core.Node, reps)
		for k := range nodes {
			nodes[k] = s.Nodes[(g+k)%len(s.Nodes)]
		}
		base := s.BaseID + actor.ID(g*4*len(s.Nodes))
		d, err := rkv.Deploy(nodes, base, s.MemLimit, s.Placement.OnNIC)
		if err != nil {
			return nil, err
		}
		if shards > 1 {
			d.TagShard(g)
		}
		out.groups = append(out.groups, d)
	}
	out.Deployment = out.groups[0]
	if chk := cl.Checker(); chk.Enabled() {
		// Report every leadership claim (initial leaders and election
		// winners) so the checker can enforce single-leader-per-ballot
		// within each replica group.
		for g, d := range out.groups {
			label := fmt.Sprintf("rkv-g%02d", g)
			for k, rep := range d.Replicas {
				k := k
				rep.Consensus.OnLead = func(ballot uint64) {
					chk.LeaderClaim(label, ballot, k)
				}
				if rep.Consensus.IsLeader {
					chk.LeaderClaim(label, 1, k)
				}
			}
		}
	}
	vn := s.ShardVNodes
	if vn <= 0 {
		vn = shard.DefaultVNodes
	}
	out.Router = shard.New(shards, vn)
	if !s.Failover.Disabled {
		out.installFailover(cl)
	}
	if shards > 1 {
		out.registerShardMetrics(cl)
	}
	var err error
	if out.Injector, out.QoS, err = s.install(s.Nodes); err != nil {
		return nil, err
	}
	if out.QoS != nil && shards > 1 {
		// Give the SLO controller the scale-out knob: drop the busiest
		// group from the ring (its key range remaps to the survivors),
		// but never below one live shard.
		out.QoS.BindReshard(out.hottestShard, func(g int) {
			if out.Router.Shards() > 1 && out.Router.Live(g) {
				out.reshard(g)
			}
		})
	}
	return out, nil
}

// hottestShard returns the live group with the most consensus commits.
func (r *RKV) hottestShard() int {
	best, bestCommits := 0, uint64(0)
	for g, d := range r.groups {
		var commits uint64
		for _, rep := range d.Replicas {
			commits += rep.Consensus.Commits
		}
		if commits > bestCommits {
			best, bestCommits = g, commits
		}
	}
	return best
}

// ShardFor returns the shard owning key per the router.
func (r *RKV) ShardFor(key []byte) int { return r.Router.Lookup(key) }

// Group returns shard g's replica group.
func (r *RKV) Group(g int) *rkv.Deployment { return r.groups[g] }

// LeaderFor routes a key: the node name and consensus actor ID of the
// owning group's current leader (falling back to the group's first
// replica while an election is in flight, whose redirect machinery
// then points the client at the winner).
func (r *RKV) LeaderFor(key []byte) (string, actor.ID) {
	g := r.groups[r.Router.Lookup(key)]
	rep := g.Leader()
	if rep == nil {
		rep = g.Replicas[0]
	}
	return rep.Node.Name, rep.Consensus.Actor.ID
}

// reshard removes shard g from the router after its group is lost
// beyond recovery: only that shard's ≈1/N of the key space remaps (to
// the surviving groups); every other key keeps its owner. The group's
// actors are not torn down — they simply stop receiving routed keys.
func (r *RKV) reshard(g int) { r.Router.Remove(g) }

// installFailover registers a membership listener modeling each replica
// group's failure detector: when the node hosting a group's current
// leader dies, after the detection delay the group's first live replica
// (in replica order) is told to run an election. Passive until a node
// actually fails.
func (r *RKV) installFailover(cl *core.Cluster) {
	detect := r.spec.Failover.Detect
	if detect <= 0 {
		detect = defaultDetect
	}
	cl.OnMembership(func(node string, down bool) {
		if !down {
			return
		}
		for _, g := range r.groups {
			if !groupHostsLeader(g, node) {
				continue
			}
			g := g
			cl.Eng.After(detect, func() {
				// Re-check at detection time: the leader may have recovered,
				// or an election may already have installed a live one.
				if l := liveLeader(g); l != nil {
					return
				}
				for _, rep := range g.Replicas {
					if rep.Node.Down() {
						continue
					}
					r.Elections++
					rep.Node.Inject(actor.Msg{Kind: rkv.KindElect, Dst: rep.Consensus.Actor.ID})
					return
				}
			})
		}
	})
}

// registerShardMetrics exposes per-shard commit/redirect counters when
// the cluster has a metrics collector, so sharded runs can attribute
// load per shard alongside the shard-tagged execution spans.
func (r *RKV) registerShardMetrics(cl *core.Cluster) {
	col := cl.Collector()
	if col == nil {
		return
	}
	for g, d := range r.groups {
		d := d
		reg := col.Registry(fmt.Sprintf("%srkv-shard%02d", cl.ObsPrefix(), g))
		reg.Counter("commits", func() uint64 {
			var t uint64
			for _, rep := range d.Replicas {
				t += rep.Consensus.Commits
			}
			return t
		})
		reg.Counter("redirects", func() uint64 {
			var t uint64
			for _, rep := range d.Replicas {
				t += rep.Consensus.Redirects
			}
			return t
		})
	}
}

// groupHostsLeader reports whether the named node hosts a replica of g
// that currently believes it is leader.
func groupHostsLeader(g *rkv.Deployment, node string) bool {
	for _, rep := range g.Replicas {
		if rep.Node.Name == node && rep.Consensus.IsLeader {
			return true
		}
	}
	return false
}

// liveLeader returns g's leader replica if its node is up (nil
// otherwise).
func liveLeader(g *rkv.Deployment) *rkv.Replica {
	l := g.Leader()
	if l == nil || l.Node.Down() {
		return nil
	}
	return l
}

// --- DT ----------------------------------------------------------------

// DTSpec deploys the distributed transaction system (OCC + 2PC).
type DTSpec struct {
	// Common is the shared policy block. Placement offloads coordinator
	// and participants when OnNIC (the logger stays host-pinned).
	Common
	// Coordinator hosts the coordinator actor and the host-pinned logger.
	Coordinator *core.Node
	// Participants hosts one participant actor each (must be non-empty:
	// a coordinator with no participants can never commit anything).
	Participants []*core.Node
	// BaseID is the coordinator's actor ID; participant i uses
	// BaseID+1+i and the logger BaseID+1+len(Participants).
	BaseID actor.ID
	// TxnTimeout arms the coordinator sweep: in-flight transactions
	// older than this abort cleanly (0 disables the sweep).
	TxnTimeout sim.Time
	// LockLease bounds participant write-lock tenure (0 = the package
	// default, negative = locks never expire).
	LockLease sim.Time
}

// DT is a deployed transaction system.
type DT struct {
	Coord    *dt.Coordinator
	Stores   []*dt.Store
	spec     DTSpec
	injector *fault.Injector
	// qos is the installed tenancy runtime (nil without a Tenancy block).
	qos *qos.Runtime
}

// validate checks the spec without deploying anything. It rejects an
// empty participant set: such a coordinator would abort every
// transaction.
func (s DTSpec) validate() error {
	if s.Coordinator == nil {
		return &validationError{spec: "DTSpec", field: "Coordinator", reason: "needs a coordinator node"}
	}
	if len(s.Participants) == 0 {
		return &validationError{spec: "DTSpec", field: "Participants",
			reason: "needs at least one participant node (a coordinator without participants cannot commit transactions)"}
	}
	return s.Common.validate("DTSpec")
}

// Deploy stands up the spec.
func (s DTSpec) Deploy() (*DT, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	lease := s.LockLease
	switch {
	case lease == 0:
		lease = dt.DefaultLockLease
	case lease < 0:
		lease = 0
	}
	var partIDs []actor.ID
	var stores []*dt.Store
	for i, n := range s.Participants {
		st := dt.NewStore()
		id := s.BaseID + 1 + actor.ID(i)
		if err := n.Register(dt.NewParticipantLease(id, st, lease), s.Placement.OnNIC, 0); err != nil {
			return nil, err
		}
		partIDs = append(partIDs, id)
		stores = append(stores, st)
	}
	loggerID := s.BaseID + 1 + actor.ID(len(s.Participants))
	if err := s.Coordinator.Register(dt.NewLogger(loggerID, nil), false, 0); err != nil {
		return nil, err
	}
	coord := dt.NewCoordinator(s.BaseID, partIDs, loggerID)
	coord.TxnTimeout = s.TxnTimeout
	if err := s.Coordinator.Register(coord.Actor, s.Placement.OnNIC, 0); err != nil {
		return nil, err
	}
	out := &DT{Coord: coord, Stores: stores, spec: s}
	if s.TxnTimeout > 0 {
		out.installSweep()
	}
	var err error
	nodes := append([]*core.Node{s.Coordinator}, s.Participants...)
	if out.injector, out.qos, err = s.install(nodes); err != nil {
		return nil, err
	}
	return out, nil
}

// installSweep injects a KindSweep message into the coordinator every
// TxnTimeout/2 so stranded transactions abort within ~1.5× the timeout.
// It sweeps only while the engine is Busy, and as an Engine.Every ticker
// it ends once the simulation's own work has drained, so Engine.Run
// terminates.
func (d *DT) installSweep() {
	eng := d.spec.Coordinator.Cluster().Eng
	interval := d.spec.TxnTimeout / 2
	if interval < 1 {
		interval = 1
	}
	coordID := d.Coord.Actor.ID
	node := d.spec.Coordinator
	eng.Every(interval, func() {
		if eng.Busy() {
			node.Inject(actor.Msg{Kind: dt.KindSweep, Dst: coordID})
		}
	})
}

// --- RTA ---------------------------------------------------------------

// RTASpec deploys the real-time analytics pipeline.
type RTASpec struct {
	// Common is the shared policy block; Placement offloads the pipeline
	// when OnNIC (the aggregator stays host-pinned).
	Common
	// Node hosts the filter → counter → ranker pipeline.
	Node *core.Node
	// Aggregator hosts the host-pinned aggregator actor.
	Aggregator *core.Node
	// BaseID is the filter's actor ID (counter +1, ranker +2,
	// aggregator +3).
	BaseID actor.ID
	// Discard lists tokens the filter drops.
	Discard []string
	// TopN sizes the ranker and aggregator views.
	TopN int
	// OnUpdate observes each consolidated top-N view.
	OnUpdate func([]rta.Entry)
}

// RTA is a deployed analytics pipeline.
type RTA struct {
	Topology rta.Topology
	injector *fault.Injector
	// qos is the installed tenancy runtime (nil without a Tenancy block).
	qos *qos.Runtime
}

// validate checks the spec without deploying anything.
func (s RTASpec) validate() error {
	if s.Node == nil || s.Aggregator == nil {
		return &validationError{spec: "RTASpec", field: "Node",
			reason: "needs pipeline and aggregator nodes"}
	}
	return s.Common.validate("RTASpec")
}

// Deploy stands up the spec.
func (s RTASpec) Deploy() (*RTA, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	topo := rta.Topology{
		Filter:     s.BaseID,
		Counter:    s.BaseID + 1,
		Ranker:     s.BaseID + 2,
		Aggregator: s.BaseID + 3,
	}
	agg, _ := rta.NewAggregator(topo.Aggregator, s.TopN, s.OnUpdate)
	if err := s.Aggregator.Register(agg, false, 0); err != nil {
		return nil, err
	}
	f, _ := rta.NewFilter(topo.Filter, topo, s.Discard)
	c, _ := rta.NewCounter(topo.Counter, topo, rta.CounterConfig{})
	r, _ := rta.NewRanker(topo.Ranker, topo, s.TopN)
	for _, a := range []*actor.Actor{f, c, r} {
		if err := s.Node.Register(a, s.Placement.OnNIC, 0); err != nil {
			return nil, err
		}
	}
	out := &RTA{Topology: topo}
	nodes := []*core.Node{s.Node, s.Aggregator}
	if s.Aggregator == s.Node {
		nodes = nodes[:1]
	}
	var err error
	if out.injector, out.qos, err = s.install(nodes); err != nil {
		return nil, err
	}
	return out, nil
}

// --- Network functions -------------------------------------------------

// FirewallSpec deploys a software-TCAM firewall actor.
type FirewallSpec struct {
	// Common is the shared policy block.
	Common
	Node  *core.Node
	ID    actor.ID
	Rules []nf.Rule
}

// Firewall is a deployed firewall actor.
type Firewall struct {
	injector *fault.Injector
	// qos is the installed tenancy runtime (nil without a Tenancy block).
	qos *qos.Runtime
}

// validate checks the spec without deploying anything.
func (s FirewallSpec) validate() error {
	if s.Node == nil {
		return &validationError{spec: "FirewallSpec", field: "Node", reason: "needs a node"}
	}
	return s.Common.validate("FirewallSpec")
}

// Deploy stands up the spec.
func (s FirewallSpec) Deploy() (*Firewall, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	fw := nf.NewFirewall(s.ID, nf.NewTCAM(s.Rules))
	if err := s.Node.Register(fw, s.Placement.OnNIC, 0); err != nil {
		return nil, err
	}
	out := &Firewall{}
	var err error
	if out.injector, out.qos, err = s.install([]*core.Node{s.Node}); err != nil {
		return nil, err
	}
	return out, nil
}

// IPSecSpec deploys an IPSec gateway actor (AES-256-CTR + SHA-1,
// accelerator-assisted on the NIC).
type IPSecSpec struct {
	// Common is the shared policy block.
	Common
	Node   *core.Node
	ID     actor.ID
	Key    []byte
	MACKey []byte
}

// IPSec is a deployed gateway actor.
type IPSec struct {
	injector *fault.Injector
	// qos is the installed tenancy runtime (nil without a Tenancy block).
	qos *qos.Runtime
}

// validate checks the spec without deploying anything. Key material is
// checked here (not at first packet) so a bad spec fails before
// deployment.
func (s IPSecSpec) validate() error {
	if s.Node == nil {
		return &validationError{spec: "IPSecSpec", field: "Node", reason: "needs a node"}
	}
	if _, err := nf.NewIPSecState(s.Key, s.MACKey); err != nil {
		return &validationError{spec: "IPSecSpec", field: "Key", reason: err.Error(), err: err}
	}
	return s.Common.validate("IPSecSpec")
}

// Deploy stands up the spec.
func (s IPSecSpec) Deploy() (*IPSec, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	st, err := nf.NewIPSecState(s.Key, s.MACKey)
	if err != nil {
		return nil, err
	}
	if err := s.Node.Register(nf.NewIPSecGateway(s.ID, st), s.Placement.OnNIC, 0); err != nil {
		return nil, err
	}
	out := &IPSec{}
	if out.injector, out.qos, err = s.install([]*core.Node{s.Node}); err != nil {
		return nil, err
	}
	return out, nil
}
