package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// drainWindow is how much extra virtual time a finished repetition runs,
// untimed, so every request in flight at the deadline can land and the
// closed-loop ledger can tell "in flight" from "lost". Closed loops stop
// issuing at the deadline, so this executes only the tail.
const drainWindow = 20 * sim.Millisecond

// rep is one repetition of one workload: what the host paid and what the
// simulated system did.
type rep struct {
	// Host time.
	setupS float64
	wallS  float64
	allocs uint64 // MemStats.Mallocs delta over RunUntil
	bytes  uint64 // MemStats.TotalAlloc delta over RunUntil
	live   uint64 // HeapAlloc after a forced GC at the deadline, cluster reachable

	// Simulated time: a pure function of (workload, seed, window).
	events uint64
	ops    uint64 // replies received by the deadline: one latency sample each
	sent   uint64
	meanus float64
	p50us  float64
	p99us  float64
	p999us float64
}

// runRep builds a fresh cluster and runs it for the window. A forced GC
// precedes both timed sections so neither inherits the other's (or the
// previous repetition's) garbage. atDeadline, when non-nil, runs once the
// window has been measured and before the drain: the traced pass reads
// its layer counters there, so they cover exactly the window.
func runRep(w wlSpec, seed uint64, window sim.Time, workers int, observe func(*core.Cluster), atDeadline func(*instance)) (rep, error) {
	var r rep
	var m0, m1 runtime.MemStats

	runtime.GC()
	t0 := time.Now()
	inst := w.build(seed, window, workers, observe)
	r.setupS = time.Since(t0).Seconds()

	runtime.GC()
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	inst.cl.RunUntil(window)
	r.wallS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)
	r.allocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc

	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.live = m1.HeapAlloc

	r.events = executed(inst.cl)
	lat := stats.NewSample()
	inflight := make([]uint64, len(inst.clients))
	for i, c := range inst.clients { // fixed order: deterministic percentiles
		r.ops += c.Received
		r.sent += c.Sent
		inflight[i] = c.Sent - c.Received
		lat.Merge(c.Lat)
	}
	r.p50us = lat.Percentile(50)
	r.p99us = lat.Percentile(99)
	r.p999us = lat.Percentile(99.9)
	r.meanus = lat.Mean()
	if atDeadline != nil {
		atDeadline(inst)
	}

	// Closed-loop conservation, per client: Sent = Received + in flight +
	// failed. In flight is bounded by the loop depth at the deadline; after
	// the drain nothing may still be missing.
	inst.cl.RunUntil(window + drainWindow)
	var failed uint64
	for i, c := range inst.clients {
		if inflight[i] > uint64(inst.depth[i]) {
			return r, fmt.Errorf("%s: client %s had %d requests in flight at the deadline, depth is %d",
				w.name, c.Name, inflight[i], inst.depth[i])
		}
		if c.Retried != 0 || c.Rejected != 0 {
			return r, fmt.Errorf("%s: client %s retried %d and was refused %d requests on a lossless run",
				w.name, c.Name, c.Retried, c.Rejected)
		}
		failed += c.Sent - c.Received
	}
	if failed += inst.invalid; failed != 0 {
		return r, fmt.Errorf("%s: %d of %d requests failed (%d invalid replies)", w.name, failed, r.sent, inst.invalid)
	}
	if r.ops == 0 {
		return r, fmt.Errorf("%s: no request completed", w.name)
	}
	return r, nil
}

func executed(cl *core.Cluster) uint64 {
	if cl.Group != nil {
		return cl.Group.ExecutedEvents()
	}
	return cl.Eng.Executed()
}

// simFields renders every simulated field of a repetition; two
// repetitions of one (workload, seed, window) must agree byte for byte,
// whatever the host or the worker count.
func (r rep) simFields() string {
	return fmt.Sprintf("events=%d %s", r.events, r.outputs())
}

// outputs renders what the simulated system did, without the engine's
// event count: the metrics collector samples by scheduling engine events
// on a classic cluster, so an observed run executes more events while
// producing exactly these outputs.
func (r rep) outputs() string {
	return fmt.Sprintf("ops=%d sent=%d mean=%v p50=%v p99=%v p999=%v",
		r.ops, r.sent, r.meanus, r.p50us, r.p99us, r.p999us)
}

// allocsPerEvent2 is allocs/event to two decimals: the allocation count
// is a property of the executed code path, not of the host, so
// repetitions must agree on it too.
func (r rep) allocsPerEvent2() string {
	return fmt.Sprintf("%.2f", float64(r.allocs)/float64(r.events))
}

// endToEnd turns one repetition into the end-to-end metric values.
func (r rep) endToEnd(window sim.Time) map[string]float64 {
	return map[string]float64{
		"events_per_sec":   float64(r.events) / r.wallS,
		"host_ns_per_op":   r.wallS * 1e9 / float64(r.ops),
		"allocs_per_event": float64(r.allocs) / float64(r.events),
		"bytes_per_event":  float64(r.bytes) / float64(r.events),
		"live_heap_mb":     float64(r.live) / (1 << 20),
		"setup_s":          r.setupS,
		"sim_tput_kops":    float64(r.ops) / window.Seconds() / 1e3,
		"sim_mean_us":      r.meanus,
		"sim_p50_us":       r.p50us,
		"sim_p99_us":       r.p99us,
		"sim_p999_us":      r.p999us,
	}
}

// dist is a metric's distribution over repetitions.
type dist struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reports the median and quartiles (exclusive method, as
// Python's statistics.quantiles(n=4)); with fewer than two values the
// quartiles collapse onto the value.
func summarize(vals []float64) dist {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	d := dist{N: len(v)}
	if len(v) == 0 {
		return d
	}
	if len(v) == 1 {
		d.Median, d.Q1, d.Q3 = v[0], v[0], v[0]
		return d
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(len(v)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(v)-1 {
			j = len(v) - 1
		}
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	d.Q1, d.Median, d.Q3 = q(1), q(2), q(3)
	return d
}
