package ipipe

import (
	"repro/internal/apps/dt"
	"repro/internal/apps/nf"
	"repro/internal/apps/rkv"
	"repro/internal/apps/rta"
	"repro/internal/deploy"
	"repro/internal/fault"
	"repro/internal/nstack"
	"repro/internal/qos"
)

// This file re-exports the three distributed applications of §4 (and
// the §5.7 network functions) behind the spec-based deployment API, so
// examples and downstream users can stand up the paper's workloads in a
// few lines. Each application deploys from a spec struct — RKVSpec,
// DTSpec, RTASpec, FirewallSpec, IPSecSpec — embedding the shared
// DeployCommon policy block (placement, faults, tenancy); RKVSpec also
// carries its leader-failover policy. Validate checks a spec and Deploy
// stands it up.

// Shared deployment-policy vocabulary.
type (
	// FailoverPolicy configures the RKV leader-failover monitor.
	FailoverPolicy = deploy.FailoverPolicy
	// DeployCommon is the placement, fault and tenancy block every spec
	// embeds.
	DeployCommon = deploy.Common
	// Fault is one scheduled failure (see internal/fault).
	Fault = fault.Fault
	// FaultSchedule is a declarative set of faults; a spec installs its
	// Faults schedule as first-class simulator events.
	FaultSchedule = fault.Schedule
	// Tenancy is the QoS block a DeployCommon carries: tenant table,
	// lane bounds, SLO controller. A nil *Tenancy disables QoS entirely.
	Tenancy = qos.Tenancy
	// Tenant configures one tenant's admission budget and latency SLO.
	Tenant = qos.Tenant
	// SLOControllerConfig tunes the closed-loop SLO controller.
	SLOControllerConfig = qos.ControllerConfig
)

// OnNIC / OnHost are the two placements: where an application's
// offloadable actors run.
var (
	OnNIC  = deploy.NIC
	OnHost = deploy.Host
)

// FaultCrash builds a node crash/restart fault.
func FaultCrash(node string, at, dur Duration) Fault { return fault.Crash(node, at, dur) }

// --- Replicated key-value store (Multi-Paxos + LSM) -------------------

// RKV aliases for the replicated key-value store.
type (
	// RKVSpec deploys a replica group (or, with Shards > 1, several).
	RKVSpec = deploy.RKVSpec
	// RKVStatus is the typed status byte of RKV responses.
	RKVStatus = rkv.Status
)

// RKV message kinds.
const (
	RKVKindReq   = rkv.KindReq
	RKVKindElect = rkv.KindElect
)

// RKV response statuses (typed; see RKVStatusOf).
const (
	RKVStatusOK       = rkv.StatusOK
	RKVStatusNotFound = rkv.StatusNotFound
	RKVStatusRedirect = rkv.StatusRedirect
)

// RKVStatusOf reads the typed status byte of a response payload.
func RKVStatusOf(p []byte) RKVStatus { return rkv.StatusOf(p) }

// RKVPut builds a write request payload.
func RKVPut(key, value []byte) []byte { return rkv.PutReq(key, value) }

// RKVGet builds a read request payload.
func RKVGet(key []byte) []byte { return rkv.GetReq(key) }

// --- Distributed transactions (OCC + 2PC) ------------------------------

// DT aliases for the transaction system.
type (
	// DTSpec deploys the transaction system.
	DTSpec = deploy.DTSpec
	// DTTxn is a client transaction.
	DTTxn = dt.Txn
	// DTOp is one read or write operation.
	DTOp = dt.Op
	// DTOutcome is the typed outcome byte of transaction responses.
	DTOutcome = dt.Outcome
)

// DTKindTxn is the client-facing message kind.
const DTKindTxn = dt.KindTxn

// DT transaction outcomes (typed; see DTOutcomeOf).
const (
	DTOutcomeCommitted = dt.OutcomeCommitted
	DTOutcomeAborted   = dt.OutcomeAborted
)

// DTOutcomeOf reads the typed outcome byte of a response payload.
func DTOutcomeOf(p []byte) DTOutcome { return dt.OutcomeOf(p) }

// DTEncodeTxn translates a transaction into a request payload.
func DTEncodeTxn(t DTTxn) []byte { return dt.EncodeTxn(t) }

// --- Real-time analytics ------------------------------------------------

// RTA aliases.
type (
	// RTASpec deploys the analytics pipeline.
	RTASpec = deploy.RTASpec
	// RTAEntry is one ranked token.
	RTAEntry = rta.Entry
)

// RTAKindTuples is the client-facing message kind.
const RTAKindTuples = rta.KindTuples

// RTAEncodeTuples packs tuples for a client request.
func RTAEncodeTuples(tuples []string) []byte { return rta.EncodeTuples(tuples) }

// --- Network functions ---------------------------------------------------

// NF aliases.
type (
	// FirewallSpec deploys a software-TCAM firewall actor.
	FirewallSpec = deploy.FirewallSpec
	// IPSecSpec deploys an IPSec gateway actor.
	IPSecSpec = deploy.IPSecSpec
	// FirewallRule is a wildcard TCAM entry.
	FirewallRule = nf.Rule
	// FiveTuple is the firewall classification key.
	FiveTuple = nf.FiveTuple
	// NFVerdict is the typed verdict byte of NF responses.
	NFVerdict = nf.Verdict
)

// Firewall verdicts (typed; see NFVerdictOf).
const (
	NFVerdictAllow = nf.VerdictAllow
	NFVerdictDeny  = nf.VerdictDeny
)

// NFVerdictOf reads the typed verdict byte of a response payload.
func NFVerdictOf(p []byte) NFVerdict { return nf.VerdictOf(p) }

// UniformFirewallRules synthesizes n wildcard rules for experiments.
func UniformFirewallRules(n int) []FirewallRule { return nf.UniformRules(n) }

// Shim networking stack (Table 4's Nstack API): real Ethernet/IPv4/UDP
// framing for clients that want to send wire-format packets through the
// network functions.
type (
	// NetAddr is an L2/L3/L4 endpoint for Encap.
	NetAddr = nstack.Addr
	// NetMAC is an Ethernet address.
	NetMAC = nstack.MAC
)

// Encap builds a real Ethernet/IPv4/UDP frame (with a valid IPv4
// checksum) around payload.
func Encap(src, dst NetAddr, payload []byte, ttl uint8) []byte {
	return nstack.Encap(src, dst, payload, ttl)
}
