package deploy

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/qos"
)

// Common is the policy block shared by every application spec,
// embedded by value: placement, fault schedule, and the multi-tenant
// QoS tenancy. Its zero value keeps everything on the host and installs
// neither faults nor QoS. Client retries are not a deployment policy:
// each workload.Request carries its own.
type Common struct {
	// Placement offloads the app's offloadable actors when OnNIC.
	Placement Placement
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
		return &validationError{spec: spec, field: "Tenancy", reason: err.Error(), err: err}
	}
	return nil
}

// install installs the block's fault schedule (a nil injector when the
// schedule is empty), then its tenancy over the app's nodes (a nil
// runtime without a Tenancy block).
func (c *Common) install(nodes []*core.Node) (*fault.Injector, *qos.Runtime, error) {
	cl := nodes[0].Cluster()
	var inj *fault.Injector
	if len(c.Faults.Faults) > 0 {
		var err error
		if inj, err = fault.Install(cl, c.Faults); err != nil {
			return nil, nil, err
		}
	}
	rt, err := qos.Install(cl, nodes, c.Tenancy)
	if err != nil {
		return nil, nil, err
	}
	return inj, rt, nil
}

// validationError is a typed spec-validation failure.
type validationError struct {
	// spec is the spec type ("RKVSpec", ...), field the offending field.
	spec   string
	field  string
	reason string
	// err is the underlying cause when validation wrapped another typed
	// error (qos's Tenancy error).
	err error
}

// Error implements error.
func (e *validationError) Error() string {
	return fmt.Sprintf("deploy: invalid %s.%s: %s", e.spec, e.field, e.reason)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *validationError) Unwrap() error { return e.err }
