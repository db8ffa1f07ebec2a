package qos

import (
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

// bucket is a deterministic token bucket in GCRA (virtual-scheduling)
// form on integer virtual time: tat is the theoretical arrival time of
// the next conforming request, inc the emission interval (one token's
// worth of time), tau the burst tolerance. Admission is then a pure
// function of the request time — splitting a refill interval (a denied
// probe at t1 between takes at t0 and t2) cannot perturb the outcome
// at t2, because denied takes don't mutate and granted ones advance
// tat by exactly inc. The earlier float-accumulator form refilled
// `tokens += rate·Δt` on every call, including denied ones, so the
// admitted sequence depended on how the interval happened to be split
// — a float-drift hazard now that gates run per-partition under
// faulted PDES runs (see TestBucketSplitRefillDeterminism).
type bucket struct {
	inc sim.Time // emission interval: Second/rate, floored at 1
	tau sim.Time // burst tolerance: (burst-1)·inc
	tat sim.Time
}

// newBucket derives the GCRA parameters. rate ≤ 0 (rejected upstream
// by Tenancy validation) degrades to an effectively-never-refilling
// bucket rather than dividing by zero.
func newBucket(rate, burst float64) bucket {
	if burst < 1 {
		burst = 1
	}
	var inc sim.Time
	if rate <= 0 {
		inc = sim.MaxTime / 4
	} else {
		inc = sim.Time(float64(sim.Second) / rate)
		if inc < 1 {
			inc = 1
		}
	}
	return bucket{inc: inc, tau: sim.Time((burst - 1) * float64(inc))}
}

func (b *bucket) take(now sim.Time) bool {
	t := b.tat
	if t < now {
		t = now
	}
	if t-now > b.tau {
		return false
	}
	b.tat = t + b.inc
	return true
}

// Gate is one client edge's admission controller: a token bucket per
// tenant, consulted by workload.Client before a request is sent.
// Control-class requests always pass (admission must never starve the
// control plane). Each Gate lives on one client's engine partition, so
// partitioned clusters race-freely run one gate per client; the Runtime
// aggregates the per-gate counters after the run.
type Gate struct {
	tenants []Tenant
	buckets []bucket
	chk     *invariant.Checker
	ctl     *Controller

	// Per-tenant counters, indexed like Tenancy.Tenants.
	Offered  []uint64
	Admitted []uint64
	Rejected []uint64
}

// newGate builds a gate from the resolved tenant table. chk and ctl may
// be nil.
func newGate(tenants []Tenant, chk *invariant.Checker, ctl *Controller) *Gate {
	g := &Gate{
		tenants:  tenants,
		buckets:  make([]bucket, len(tenants)),
		chk:      chk,
		ctl:      ctl,
		Offered:  make([]uint64, len(tenants)),
		Admitted: make([]uint64, len(tenants)),
		Rejected: make([]uint64, len(tenants)),
	}
	for i, t := range tenants {
		burst := t.Burst
		if burst <= 0 {
			burst = defaultBurst
		}
		g.buckets[i] = newBucket(t.RatePerSec, burst)
	}
	return g
}

// Admit implements workload.QoSHook: charge one request against the
// tenant's bucket. Unknown tenants (beyond the table) are admitted —
// untagged legacy traffic is unconstrained.
func (g *Gate) Admit(tenant uint16, class uint8, now sim.Time) bool {
	if int(tenant) >= len(g.buckets) {
		return true
	}
	g.Offered[tenant]++
	g.chk.AdmissionOffer()
	if Class(class) == ClassControl || g.buckets[tenant].take(now) {
		g.Admitted[tenant]++
		g.chk.AdmissionAdmit()
		return true
	}
	g.Rejected[tenant]++
	g.chk.AdmissionReject()
	return false
}

// Latency implements workload.QoSHook: feed one response latency into
// the SLO controller's per-tenant EWMA.
func (g *Gate) Latency(tenant uint16, class uint8, us float64) {
	if g.ctl != nil {
		g.ctl.Observe(tenant, us)
	}
	_ = class
}

// RegisterMetrics exposes the gate's per-tenant admission counters.
func (g *Gate) RegisterMetrics(reg *obs.Registry) {
	for i := range g.tenants {
		i := i
		name := g.tenants[i].Name
		reg.Counter(name+"_offered", func() uint64 { return g.Offered[i] })
		reg.Counter(name+"_admitted", func() uint64 { return g.Admitted[i] })
		reg.Counter(name+"_rejected", func() uint64 { return g.Rejected[i] })
	}
}
