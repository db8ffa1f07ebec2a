package obs

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Metric kinds within a Registry.
const (
	kindCounter uint8 = iota
	kindGauge
	kindHist
)

type regItem struct {
	name string
	kind uint8
	c    func() uint64
	g    func() float64
	h    *Histogram
}

// Registry is a named, ordered set of metrics belonging to one entity
// (typically one node). Metrics are sampled — counters and gauges are
// closures over live state — so registration costs nothing on the hot
// path; all cost is paid at snapshot time.
//
// Register all metrics before the first snapshot: snapshots pair values
// with items by index, so the item list must only grow append-only.
type Registry struct {
	name  string
	items []regItem
	seen  map[string]bool
}

func (r *Registry) add(it regItem) {
	if r.seen[it.name] {
		panic(fmt.Sprintf("obs: duplicate metric %q in registry %q", it.name, r.name))
	}
	r.seen[it.name] = true
	r.items = append(r.items, it)
}

// Counter registers a monotonically-increasing value sampled via f.
func (r *Registry) Counter(name string, f func() uint64) {
	r.add(regItem{name: name, kind: kindCounter, c: f})
}

// Gauge registers an instantaneous value sampled via f.
func (r *Registry) Gauge(name string, f func() float64) {
	r.add(regItem{name: name, kind: kindGauge, g: f})
}

// Histogram registers and returns a new histogram under the given name.
// The caller feeds it with Observe; snapshots emit count/mean/p50/p99/max.
func (r *Registry) Histogram(name string) *Histogram {
	h := &Histogram{}
	r.add(regItem{name: name, kind: kindHist, h: h})
	return h
}

// histBuckets gives 4 buckets per octave across ~2^-10 .. 2^14, enough
// resolution for microsecond-scale latencies spanning ns..tens of ms.
const histBuckets = 96

// histBucketBase is the exponent offset: bucket i covers values v with
// floor(4*log2(v)) == i - histBucketBase.
const histBucketBase = 40

// Histogram is a log-bucketed streaming histogram (4 buckets/octave).
// Quantiles are approximate (bucket upper bound); count, mean and max
// are exact. It is deliberately fixed-size and allocation-free.
type Histogram struct {
	n       uint64
	sum     float64
	max     float64
	buckets [histBuckets]uint64
}

// Observe folds in one sample. Non-positive samples land in bucket 0.
func (h *Histogram) Observe(v float64) {
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[histBucket(v)]++
}

func histBucket(v float64) int {
	if v <= 0 {
		return 0
	}
	b := int(math.Floor(4*math.Log2(v))) + histBucketBase
	if b < 0 {
		return 0
	}
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// count returns the number of samples.
func (h *Histogram) count() uint64 { return h.n }

// mean returns the exact mean (0 before any samples).
func (h *Histogram) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Merge folds other's samples into h at bucket granularity: count, sum
// and max stay exact; quantiles keep bucket resolution. Used by the
// report layer to aggregate per-node sojourn histograms into one
// per-experiment distribution. A nil other is a no-op.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	h.n += other.n
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
}

// quantile returns the q-th quantile (q in [0,1]) as the upper bound of
// the bucket holding the q·n-th sample; 0 when empty.
func (h *Histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			// Upper bound of bucket i: 2^((i+1-base)/4).
			ub := math.Pow(2, float64(i+1-histBucketBase)/4)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// histSnap is a histogram's frozen summary inside a snapshot.
type histSnap struct {
	count          uint64
	mean, p50, p99 float64
	max            float64
}

// value is one metric's frozen value inside a snapshot.
type value struct {
	u uint64
	f float64
	h histSnap
}

type snapshot struct {
	at   sim.Time
	reg  int
	vals []value
}

// Collector schedules periodic snapshots of its registries on a
// simulation engine and buffers the records for NDJSON export.
//
// The tick is an Engine.Every ticker: after sampling, it reschedules
// only while the engine is Busy — other tickers (a DT sweep, an SLO
// controller) do not count — so an Engine.Run() drains normally once
// the simulation itself goes quiet. Sampling is read-only
// — it never mutates simulation state or consumes randomness — so
// enabling metrics cannot change simulation results.
//
// On a partitioned (PDES) simulation the collector must not schedule
// engine events at all: a sampling event would change the conservative
// window structure (the safe horizon T is the earliest pending event)
// and with it the deterministic (at, src, seq) merge of cross-partition
// traffic. AttachGroup switches the collector to window mode, where the
// round coordinator drives sampling at window boundaries instead — see
// windowFlush.
type Collector struct {
	eng      *sim.Engine
	interval sim.Time
	regs     []*Registry
	snaps    []snapshot
	started  bool

	// group is non-nil in window mode; next is the earliest un-sampled
	// grid point (multiples of interval, first at interval — the same
	// grid the classic tick walks).
	group *sim.Group
	next  sim.Time
}

// DefaultMetricsInterval is the default snapshot spacing (sim time).
const DefaultMetricsInterval = 100 * sim.Microsecond

// NewCollector creates a collector sampling every interval of virtual
// time (0 uses DefaultMetricsInterval).
func NewCollector(eng *sim.Engine, interval sim.Time) *Collector {
	if interval <= 0 {
		interval = DefaultMetricsInterval
	}
	return &Collector{eng: eng, interval: interval}
}

// Registry creates a registry enrolled with this collector. Names should
// be unique; duplicate names produce distinguishable NDJSON records only
// by order, so don't.
func (c *Collector) Registry(name string) *Registry {
	r := &Registry{name: name, seen: map[string]bool{}}
	c.regs = append(c.regs, r)
	return r
}

// AttachGroup switches the collector to window mode for a partitioned
// simulation: sampling is driven by the group's round coordinator at
// conservative-window boundaries, and Start schedules nothing on the
// engine (observation must not perturb the window structure). No-op for
// a nil or single-partition group, which run the classic engine path.
// Attach once, before Start and before the group runs.
func (c *Collector) AttachGroup(g *sim.Group) {
	if c == nil || g == nil || g.Partitions() <= 1 || c.group != nil {
		return
	}
	c.group = g
	g.OnRound(c.windowFlush)
}

// Start schedules the periodic sampling. Idempotent. In window mode
// (AttachGroup) it only arms the grid; the group coordinator does the
// sampling.
func (c *Collector) Start() {
	if c == nil || c.started {
		return
	}
	c.started = true
	if c.group != nil {
		c.next = c.interval
		return
	}
	c.eng.Every(c.interval, c.Snapshot)
}

// windowFlush is the window-mode sampler, invoked by the round
// coordinator after every partition has executed its events strictly
// before limit. If one or more grid points fell inside the window just
// completed, it records one snapshot stamped at the latest such point:
// every record then reflects a consistent cross-partition cut at a
// window boundary — samples never straddle a conservative window (the
// same boundary-flush shape as sim.Engine's per-window executed-counter
// flush). Values are read here, between rounds, so no lock is needed.
func (c *Collector) windowFlush(limit sim.Time) {
	if !c.started || c.next >= limit {
		return
	}
	at := c.next + ((limit-1-c.next)/c.interval)*c.interval
	c.snapshotAt(at)
	c.next = at + c.interval
}

// Snapshot samples every registry once, immediately, stamped with the
// engine's current virtual time. The CLIs call it after the run for a
// final end-state record.
func (c *Collector) Snapshot() {
	if c == nil {
		return
	}
	c.snapshotAt(c.eng.Now())
}

func (c *Collector) snapshotAt(now sim.Time) {
	for ri, r := range c.regs {
		vals := make([]value, len(r.items))
		for i, it := range r.items {
			switch it.kind {
			case kindCounter:
				vals[i].u = it.c()
			case kindGauge:
				vals[i].f = it.g()
			case kindHist:
				vals[i].h = histSnap{
					count: it.h.count(),
					mean:  it.h.mean(),
					p50:   it.h.quantile(0.50),
					p99:   it.h.quantile(0.99),
					max:   it.h.max,
				}
			}
		}
		c.snaps = append(c.snaps, snapshot{at: now, reg: ri, vals: vals})
	}
}

// Snapshots reports the number of buffered snapshot records.
func (c *Collector) Snapshots() int {
	if c == nil {
		return 0
	}
	return len(c.snaps)
}

// Watermarks returns the maximum sampled value per gauge name across
// every registry and buffered snapshot — the high-water marks of queue
// depths, core counts and backlogs over the run. The report layer
// aggregates these per experiment.
func (c *Collector) Watermarks() map[string]float64 {
	if c == nil {
		return nil
	}
	out := map[string]float64{}
	for _, s := range c.snaps {
		r := c.regs[s.reg]
		for i, v := range s.vals {
			if i >= len(r.items) || r.items[i].kind != kindGauge {
				continue
			}
			name := r.items[i].name
			if cur, ok := out[name]; !ok || v.f > cur {
				out[name] = v.f
			}
		}
	}
	return out
}

// CounterTotals samples every counter once, now, and returns the values
// summed per metric name across registries — the end-of-run totals the
// report layer folds into per-experiment counters.
func (c *Collector) CounterTotals() map[string]uint64 {
	if c == nil {
		return nil
	}
	out := map[string]uint64{}
	for _, r := range c.regs {
		for _, it := range r.items {
			if it.kind == kindCounter {
				out[it.name] += it.c()
			}
		}
	}
	return out
}

// MergedHistogram returns a fresh histogram holding the bucket-level
// merge of every registered histogram with the given name (one per
// node, typically), or nil if none exist.
func (c *Collector) MergedHistogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	var out *Histogram
	for _, r := range c.regs {
		for _, it := range r.items {
			if it.kind == kindHist && it.name == name {
				if out == nil {
					out = &Histogram{}
				}
				out.Merge(it.h)
			}
		}
	}
	return out
}
