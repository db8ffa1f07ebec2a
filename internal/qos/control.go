package qos

import (
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Controller is the SLO control loop: it tracks a latency EWMA per
// tenant (fed by the admission gates from client response times),
// compares against each tenant's p99 objective, and when an objective
// is breached drives the runtime's existing knobs, cheapest first:
//
//  1. shrink the client batching window (lower queueing delay at the
//     cost of train amortization),
//  2. tighten the scheduler's MeanThresh so the §3.2.3 EWMA migration
//     signal fires and sheds NIC-core load to the host,
//  3. reshard — drop the hottest shard from the router ring so its key
//     range remaps to the surviving groups (at most once per run).
//
// Actions are spaced by a cooldown so the loop observes each knob's
// effect before escalating. Ticks ride an Engine.Every ticker, so an
// idle simulation still terminates.
// The controller requires a classic (single-engine) cluster: it reads
// cross-node scheduler state, which partitioned clusters forbid.
type Controller struct {
	eng *sim.Engine
	cfg ControllerConfig

	tenants []Tenant
	ewma    []float64
	seen    []bool

	scheds   []*sched.Scheduler
	batchers []*workload.Batcher
	hottest  func() int
	reshard  func(int)

	resharded  bool
	lastAction sim.Time
	started    bool

	// Action counters, for reports and metrics.
	BatchShrinks   uint64
	ThreshTightens uint64
	Reshards       uint64
	Ticks          uint64
}

// newController builds the loop, its state exposed on reg (nil: no
// metrics); call the Bind* methods to hand it knobs, then Start.
func newController(eng *sim.Engine, cfg ControllerConfig, tenants []Tenant, reg *obs.Registry) *Controller {
	if cfg.Period <= 0 {
		cfg.Period = defaultPeriod
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = defaultCooldown
	}
	if cfg.ThreshFactor <= 0 {
		cfg.ThreshFactor = 0.6
	}
	c := &Controller{
		eng:     eng,
		cfg:     cfg,
		tenants: tenants,
		ewma:    make([]float64, len(tenants)),
		seen:    make([]bool, len(tenants)),
	}
	if reg != nil {
		reg.Counter("ticks", func() uint64 { return c.Ticks })
		reg.Counter("batch_shrinks", func() uint64 { return c.BatchShrinks })
		reg.Counter("thresh_tightens", func() uint64 { return c.ThreshTightens })
		reg.Counter("reshards", func() uint64 { return c.Reshards })
		for i, t := range tenants {
			reg.Gauge(t.Name+"_ewma_us", func() float64 { return c.ewma[i] })
		}
	}
	return c
}

// BindScheduler hands the controller a node scheduler whose migration
// thresholds it may tighten.
func (c *Controller) BindScheduler(s *sched.Scheduler) {
	if s != nil {
		c.scheds = append(c.scheds, s)
	}
}

// BindBatcher hands the controller a client batcher whose window it may
// shrink.
func (c *Controller) BindBatcher(b *workload.Batcher) {
	if b != nil {
		c.batchers = append(c.batchers, b)
	}
}

// BindReshard hands the controller the scale-out knob: hottest names
// the shard to drop, reshard removes it from the router ring. Used at
// most once per run.
func (c *Controller) BindReshard(hottest func() int, reshard func(int)) {
	c.hottest, c.reshard = hottest, reshard
}

// Observe feeds one response latency (µs) into the tenant's EWMA.
func (c *Controller) Observe(tenant uint16, us float64) {
	if int(tenant) >= len(c.ewma) {
		return
	}
	if !c.seen[tenant] {
		c.seen[tenant] = true
		c.ewma[tenant] = us
		return
	}
	c.ewma[tenant] = ewmaAlpha*us + (1-ewmaAlpha)*c.ewma[tenant]
}

// Start arms the periodic tick. A tick decides only while the engine is
// Busy, and the ticker ends once the simulation's own work has drained
// (Engine.Every), so a drained simulation terminates.
func (c *Controller) Start() {
	if c.started {
		return
	}
	c.started = true
	c.eng.Every(c.cfg.Period, func() {
		if c.eng.Busy() {
			c.step()
		}
	})
}

// worstBreach returns the largest ewma/SLO ratio across tenants with an
// objective (0 when nothing breaches).
func (c *Controller) worstBreach() float64 {
	worst := 0.0
	for i, t := range c.tenants {
		if t.SLOp99Us <= 0 || !c.seen[i] {
			continue
		}
		if r := c.ewma[i] / t.SLOp99Us; r > worst {
			worst = r
		}
	}
	return worst
}

// step runs one control decision.
func (c *Controller) step() {
	c.Ticks++
	if c.worstBreach() <= 1 {
		return
	}
	now := c.eng.Now()
	if c.lastAction != 0 && now-c.lastAction < c.cfg.Cooldown {
		return
	}
	if c.shrinkBatch() || c.tightenThresh() || c.doReshard() {
		c.lastAction = now
	}
}

// shrinkBatch halves every bound batching window still above the floor.
func (c *Controller) shrinkBatch() bool {
	acted := false
	for _, b := range c.batchers {
		if b.Window > minBatchWindow {
			b.Window = b.Window / 2
			if b.Window < minBatchWindow {
				b.Window = minBatchWindow
			}
			acted = true
		}
	}
	if acted {
		c.BatchShrinks++
	}
	return acted
}

// tightenThresh scales every bound scheduler's MeanThresh down by
// ThreshFactor (floored at 1µs), so the §3.2.3 migration signal fires
// at lower FCFS sojourn means and pushes load to the host.
func (c *Controller) tightenThresh() bool {
	acted := false
	for _, s := range c.scheds {
		_, mean := s.Thresholds()
		if mean > 1 {
			next := mean * c.cfg.ThreshFactor
			if next < 1 {
				next = 1
			}
			s.SetThresholds(0, next)
			acted = true
		}
	}
	if acted {
		c.ThreshTightens++
	}
	return acted
}

// doReshard drops the hottest shard from the router ring, once.
func (c *Controller) doReshard() bool {
	if c.resharded || c.reshard == nil {
		return false
	}
	g := 0
	if c.hottest != nil {
		g = c.hottest()
	}
	c.reshard(g)
	c.resharded = true
	c.Reshards++
	return true
}
