package deploy

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/qos"
)

// This file is the spec-API v2 surface: the policy fields every
// application spec used to duplicate live in one embedded Common block,
// every spec implements the Spec interface, and every deployment
// implements App — so harnesses (ipipe-sim, ipipe-bench, golden replay)
// iterate specs generically instead of switching over five concrete
// types.

// Common is the policy block shared by every application spec,
// embedded by value: placement, leader failover, fault schedule, and
// the multi-tenant QoS tenancy. Zero value = the legacy defaults (host
// placement, failover enabled with default detection where the app has
// a failover monitor, no faults, no QoS) — a spec with a zero Common
// deploys byte-for-byte like before the block existed. Client retries
// are not a deployment policy: each workload.Request carries its own.
type Common struct {
	// Placement offloads the app's offloadable actors when OnNIC.
	Placement Placement
	// Failover configures the leader-failover monitor on apps that have
	// one (RKV; ignored elsewhere).
	Failover FailoverPolicy
	// Faults is an optional failure schedule installed at deploy time.
	// Schedules install on classic and partitioned (PDES) clusters
	// alike; cluster-wide arms run at window boundaries (DESIGN.md §9).
	Faults fault.Schedule
	// Tenancy enables multi-tenant QoS: priority lanes on the app's
	// nodes, token-bucket admission on bound clients, and optionally the
	// SLO controller. nil = QoS disabled entirely.
	Tenancy *qos.Tenancy
}

// validate checks the block's policy fields (spec names the enclosing
// spec type for the error).
func (c *Common) validate(spec string) error {
	if err := c.Tenancy.Validate(); err != nil {
		return &validationError{Spec: spec, Field: "Tenancy", Reason: err.Error(), Err: err}
	}
	return nil
}

// Spec is a deployable application spec. All five concrete specs
// (RKVSpec, DTSpec, RTASpec, FirewallSpec, IPSecSpec) implement it by
// value, so harnesses hold []deploy.Spec and validate/deploy uniformly;
// the typed Deploy methods remain for callers that need the concrete
// deployment.
type Spec interface {
	// Validate checks the spec without deploying anything. Errors are
	// *validationError (never a panic), so harnesses can report the
	// offending spec and field.
	Validate() error
	// DeployApp validates and stands the spec up, returning the common
	// App surface.
	DeployApp() (App, error)
}

// App is a deployed application: *RKV, *DT, *RTA, *Firewall or
// *IPSec. Assert to the concrete type for its fields.
type App any

// validationError is a typed spec-validation failure.
type validationError struct {
	// Spec is the spec type ("RKVSpec", ...), Field the offending field.
	Spec   string
	Field  string
	Reason string
	// Err is the underlying cause when validation wrapped another typed
	// error (e.g. *qos.ConfigError).
	Err error
}

// Error implements error.
func (e *validationError) Error() string {
	return fmt.Sprintf("deploy: invalid %s.%s: %s", e.Spec, e.Field, e.Reason)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *validationError) Unwrap() error { return e.Err }

// installTenancy wires a spec's Tenancy block over the app's node set
// (no-op returning nil on a nil Tenancy).
func installTenancy(cl *core.Cluster, nodes []*core.Node, t *qos.Tenancy) (*qos.Runtime, error) {
	return qos.Install(cl, nodes, t)
}
