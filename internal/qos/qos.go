// Package qos adds multi-tenant quality of service to the iPipe
// runtime: tenant- and class-tagged traffic, a strict-priority lane
// scheduler in front of each node's FCFS/DRR actor scheduler, per-tenant
// token-bucket admission control at the workload edge, and an SLO
// controller that closes the loop by driving the knobs the earlier
// layers already expose — the §3.2.3 EWMA migration thresholds, the
// client batching window, and shard.Ring resharding.
//
// The design follows the RSPP RK-03 lane-scheduler contract: three
// lanes ordered control > data > telemetry, bounded per-lane queues,
// and watermark actions per lane — telemetry over its cap is shed,
// data over its cap is backpressured (deferred, never dropped), and
// control is never dropped and never bounded.
//
// Everything is deterministic in virtual time: token buckets refill on
// the engine clock, the lane pump spaces deliveries by a fixed dispatch
// cost, and the controller ticks on engine timers — so QoS-enabled runs
// fingerprint identically at any PDES worker count, and a deployment
// without a Tenancy block behaves byte-for-byte as before.
package qos

import (
	"fmt"

	"repro/internal/sim"
)

// Class tags a request's traffic class at the workload edge. The zero
// value is classData, so untagged legacy traffic rides the data lane.
type Class uint8

// Traffic classes, in the order clients tag them.
const (
	// classData is ordinary application traffic (the zero value).
	classData Class = iota
	// ClassControl is cluster-control traffic (elections, membership,
	// sweeps): highest priority, never shed.
	ClassControl
	// ClassTelemetry is observability traffic: lowest priority, shed
	// first under pressure.
	ClassTelemetry
)

// String names the class for metrics and span labels.
func (c Class) String() string {
	switch c {
	case ClassControl:
		return "control"
	case classData:
		return "data"
	case ClassTelemetry:
		return "telemetry"
	}
	return fmt.Sprintf("class-%d", uint8(c))
}

// Lane is a priority lane of the node-front scheduler. Lower values
// dispatch first: LaneControl preempts LaneData preempts LaneTelemetry.
type Lane uint8

// Lanes in strict priority order.
const (
	LaneControl Lane = iota
	LaneData
	LaneTelemetry
	// NumLanes sizes per-lane arrays.
	NumLanes
)

// String names the lane; used verbatim for obs track names and metric
// prefixes so every layer agrees on the vocabulary.
func (l Lane) String() string {
	switch l {
	case LaneControl:
		return "lane-control"
	case LaneData:
		return "lane-data"
	case LaneTelemetry:
		return "lane-telemetry"
	}
	return fmt.Sprintf("lane-%d", uint8(l))
}

// laneOf maps a traffic class onto its lane.
func laneOf(c Class) Lane {
	switch c {
	case ClassControl:
		return LaneControl
	case ClassTelemetry:
		return LaneTelemetry
	}
	return LaneData
}

// Tenant configures one tenant's admission budget and latency SLO.
type Tenant struct {
	// Name labels the tenant in metrics and reports.
	Name string
	// RatePerSec is the admitted request rate (token refill); ≤ 0 is
	// invalid — an unlimited tenant simply omits admission by leaving
	// Tenancy.Tenants empty.
	RatePerSec float64
	// Burst is the bucket depth in requests (0 = 16).
	Burst float64
	// SLOp99Us is the tenant's p99 latency objective in microseconds
	// observed by the SLO controller (0 = no objective; the tenant is
	// admission-controlled but not steered).
	SLOp99Us float64
}

// defaultBurst is the token-bucket depth used when a tenant leaves
// Burst zero.
const defaultBurst = 16

// LaneConfig bounds the per-lane queues and prices the lane pump.
type LaneConfig struct {
	// DataCap / TelemetryCap bound the data and telemetry queues
	// (0 = defaults). The control lane is never bounded.
	DataCap      int
	TelemetryCap int
	// DispatchCost spaces successive lane deliveries (0 = default).
	DispatchCost sim.Time
}

// Lane defaults.
const (
	defaultDataCap      = 256
	defaultTelemetryCap = 64
	defaultDispatchCost = 40 * sim.Nanosecond
	// backpressureDelay is how long an over-watermark data message is
	// deferred before it is offered again.
	backpressureDelay = 2 * sim.Microsecond
)

// withDefaults resolves zero fields.
func (c LaneConfig) withDefaults() LaneConfig {
	if c.DataCap <= 0 {
		c.DataCap = defaultDataCap
	}
	if c.TelemetryCap <= 0 {
		c.TelemetryCap = defaultTelemetryCap
	}
	if c.DispatchCost <= 0 {
		c.DispatchCost = defaultDispatchCost
	}
	return c
}

// ControllerConfig tunes the SLO control loop.
type ControllerConfig struct {
	// Enabled arms the controller. It requires a classic (single-engine)
	// cluster: the loop reads cross-node state, which a partitioned
	// cluster forbids.
	Enabled bool
	// Period is the control-loop tick (0 = 500µs).
	Period sim.Time
	// Cooldown is the minimum spacing between corrective actions
	// (0 = 2ms).
	Cooldown sim.Time
	// ThreshFactor multiplies the scheduler MeanThresh when tightening
	// the migration signal; must be in (0, 1) when set (0 = 0.6).
	ThreshFactor float64
}

// Controller defaults.
const (
	defaultPeriod   = 500 * sim.Microsecond
	defaultCooldown = 2 * sim.Millisecond
	// ewmaAlpha is the weight of a new sample in a tenant's latency EWMA.
	ewmaAlpha = 0.3
	// minBatchWindow floors the batching-window shrink knob.
	minBatchWindow = 500 * sim.Nanosecond
)

// Tenancy is the multi-tenant QoS block a deploy spec carries: the
// tenant table, the lane bounds, and the control loop. A nil *Tenancy
// on a spec disables QoS entirely (the legacy single-tenant behavior).
type Tenancy struct {
	Tenants    []Tenant
	Lanes      LaneConfig
	Controller ControllerConfig
}

// Validate checks the block without deploying anything. It returns
// *configError (never panics) so spec validation can surface precise
// field diagnostics.
func (t *Tenancy) Validate() error {
	if t == nil {
		return nil
	}
	for i, tn := range t.Tenants {
		if tn.RatePerSec <= 0 {
			return &configError{Field: fmt.Sprintf("Tenants[%d].RatePerSec", i),
				Reason: fmt.Sprintf("must be > 0 (got %g); omit the tenant table to disable admission", tn.RatePerSec)}
		}
		if tn.Burst < 0 {
			return &configError{Field: fmt.Sprintf("Tenants[%d].Burst", i),
				Reason: fmt.Sprintf("must be >= 0 (got %g)", tn.Burst)}
		}
		if tn.SLOp99Us < 0 {
			return &configError{Field: fmt.Sprintf("Tenants[%d].SLOp99Us", i),
				Reason: fmt.Sprintf("must be >= 0 (got %g)", tn.SLOp99Us)}
		}
	}
	if t.Lanes.DataCap < 0 {
		return &configError{Field: "Lanes.DataCap", Reason: fmt.Sprintf("must be >= 0 (got %d)", t.Lanes.DataCap)}
	}
	if t.Lanes.TelemetryCap < 0 {
		return &configError{Field: "Lanes.TelemetryCap", Reason: fmt.Sprintf("must be >= 0 (got %d)", t.Lanes.TelemetryCap)}
	}
	if t.Lanes.DispatchCost < 0 {
		return &configError{Field: "Lanes.DispatchCost", Reason: "must be >= 0"}
	}
	c := t.Controller
	if c.Period < 0 {
		return &configError{Field: "Controller.Period", Reason: "must be >= 0"}
	}
	if c.ThreshFactor < 0 || c.ThreshFactor >= 1 {
		return &configError{Field: "Controller.ThreshFactor", Reason: fmt.Sprintf("must be in [0, 1) (got %g)", c.ThreshFactor)}
	}
	if c.Enabled && len(t.Tenants) == 0 {
		return &configError{Field: "Controller.Enabled",
			Reason: "the SLO controller needs a tenant table to steer"}
	}
	return nil
}

// configError is a typed Tenancy validation failure.
type configError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *configError) Error() string {
	return fmt.Sprintf("qos: invalid Tenancy.%s: %s", e.Field, e.Reason)
}
