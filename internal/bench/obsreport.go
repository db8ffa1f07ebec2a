package bench

// The observed-run report: ipipe-bench -report re-runs a small set of
// experiments with tracing and metrics attached and condenses what the
// observability layer saw — merged sojourn histograms, gauge
// watermarks, scheduler timelines, counter totals, PDES handoff/round
// counts, and allocation cost — into the versioned obs.Report artifact
// (BENCH_obs.json). Paired with -baseline it becomes the perf gate
// (`make obs-gate`): deterministic fields must not drift, cost fields
// must not grow past their band.

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DefaultReportIDs is the experiment set an unqualified -report runs:
// one classic multi-cluster sweep (fig17 exercises the host/NIC split)
// and the partitioned mesh sweep (scale-nodes exercises sharded sinks,
// window-mode metrics and cross-partition handoffs).
func DefaultReportIDs() []string { return []string{"fig17", "scale-nodes"} }

// ObsReport runs each experiment with observability attached and builds
// the run-summary artifact. Sweep parallelism is forced to 1: the
// clusters of a sweep share one tracer, and serial construction keeps
// registration order — and with it every deterministic field — exactly
// reproducible. (PDESWorkers is honored; window workers cannot change
// the artifact.)
func ObsReport(opts Options, ids []string) (*obs.Report, error) {
	if len(ids) == 0 {
		ids = DefaultReportIDs()
	}
	opts.Parallel = 1
	rep := &obs.Report{
		Version:    obs.ReportVersion,
		Seed:       opts.seed(),
		Quick:      opts.Quick,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Note:       "deterministic fields gate exactly; allocs gate with a growth band; wall time is informational",
	}
	for _, id := range ids {
		es, err := obsReportOne(id, opts)
		if err != nil {
			return nil, err
		}
		rep.Experiments = append(rep.Experiments, *es)
	}
	return rep, nil
}

// timelineCap bounds the scheduler-decision events embedded per
// experiment; TimelineTotal still counts them all.
const timelineCap = 64

func obsReportOne(id string, opts Options) (*obs.ExperimentSummary, error) {
	tracer := obs.NewTracer()
	var collectors []*obs.Collector
	var clusters []*core.Cluster
	run := 0
	core.SetDefaultObserver(func(c *core.Cluster) {
		prefix := fmt.Sprintf("r%02d/", run)
		run++
		c.EnableTracingPrefixed(tracer, prefix)
		col := obs.NewCollector(c.Eng, 100*sim.Microsecond)
		collectors = append(collectors, col)
		c.EnableMetricsPrefixed(col, prefix)
		col.Start()
		clusters = append(clusters, c)
	})
	defer core.SetDefaultObserver(nil)

	// Mallocs/TotalAlloc deltas around the run give the allocation cost
	// the gate bands. GC between the reads only helps (both counters are
	// monotonic totals, not live-heap numbers).
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r, err := Run(id, opts)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)

	es := &obs.ExperimentSummary{ID: id}
	soj := &obs.Histogram{}
	watermarks := map[string]float64{}
	counters := map[string]uint64{}
	for _, col := range collectors {
		col.Snapshot() // final end-state record, like the CLI path
		soj.Merge(col.MergedHistogram("sojourn_us"))
		for name, v := range col.Watermarks() {
			if cur, ok := watermarks[name]; !ok || v > cur {
				watermarks[name] = v
			}
		}
		for name, v := range col.CounterTotals() {
			counters[name] += v
		}
	}
	es.SojournUs = obs.SummarizeHistogram(soj)
	es.Ops = counters["nic_completed"] + counters["host_completed"]
	if len(watermarks) > 0 {
		es.Watermarks = watermarks
	}
	if len(counters) > 0 {
		es.Counters = counters
	}
	tracer.EachInstant(func(group, name string, at sim.Time) {
		es.TimelineTotal++
		if len(es.Timeline) < timelineCap {
			es.Timeline = append(es.Timeline, obs.TimelineEvent{TUs: at.Micros(), Group: group, Name: name})
		}
	})
	for _, c := range clusters {
		es.Handoffs += c.Group.Crossed()
		es.Rounds += c.Group.Rounds()
	}
	es.WallMS = float64(r.Wall.Microseconds()) / 1e3
	es.Events = r.Events
	if s := r.Wall.Seconds(); s > 0 {
		es.EventsPerSec = float64(r.Events) / s
	}
	es.Allocs = m1.Mallocs - m0.Mallocs
	es.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	return es, nil
}
