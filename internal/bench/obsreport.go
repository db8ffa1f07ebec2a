package bench

// Observing a harness run. Observer is the Options.Observe that
// ipipe-bench -trace/-metrics, the observed-run report and
// TestObservedRunParity share; ObsReport (ipipe-bench -report) re-runs
// a small set of experiments under it and condenses what the
// observability layer saw — merged sojourn histograms, gauge
// watermarks, scheduler timelines, counter totals, event and PDES
// handoff/round counts — into the obs.Report artifact. Every field is a
// pure function of (seed, code), so the rendered bytes are reproducible
// and each experiment's sha256 is pinned as an "obs:" line of
// testdata/replay_golden.txt, beside every -check digest.

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Observer attaches observability to every cluster of a run: one tracer
// shared by all of them, groups prefixed r00/, r01/, … in construction
// order, and one collector per cluster (each is bound to its engine).
// The sweep must be serial (Options.Parallel 1): parallel sweep workers
// would race on the tracer and scramble the prefixes. Window workers
// are free — sinks are sharded per partition and the collector samples
// at window boundaries.
type Observer struct {
	Tracer   *obs.Tracer // nil: no tracing
	Metrics  bool        // one collector per cluster
	Interval sim.Time    // snapshot spacing; ≤ 0 is obs.DefaultMetricsInterval

	Collectors []*obs.Collector
	attached   int
}

// Attach is the Options.Observe (or mesh.Config.Observe) of ob.
func (ob *Observer) Attach(c *core.Cluster) {
	prefix := fmt.Sprintf("r%02d/", ob.attached)
	ob.attached++
	c.EnableTracingPrefixed(ob.Tracer, prefix)
	if ob.Metrics {
		col := obs.NewCollector(c.Eng, ob.Interval)
		ob.Collectors = append(ob.Collectors, col)
		c.EnableMetricsPrefixed(col, prefix)
		col.Start()
	}
}

// WriteMetrics takes every collector's end-state snapshot and
// concatenates their NDJSON streams in construction order.
func (ob *Observer) WriteMetrics(w io.Writer) error {
	for _, col := range ob.Collectors {
		col.Snapshot()
		if err := col.WriteNDJSON(w); err != nil {
			return err
		}
	}
	return nil
}

// defaultReportIDs is the experiment set an unqualified -report runs:
// one classic multi-cluster sweep (fig17 exercises the host/NIC split)
// and the partitioned mesh sweep (scale-nodes exercises sharded sinks,
// window-mode metrics and cross-partition handoffs).
func defaultReportIDs() []string { return []string{"fig17", "scale-nodes"} }

// ObsReport runs each experiment with observability attached and builds
// the run-summary artifact. Sweep parallelism is forced to 1 (see
// Observer); PDESWorkers is honored — window workers cannot change the
// artifact.
func ObsReport(opts Options, ids []string) (*obs.Report, error) {
	if len(ids) == 0 {
		ids = defaultReportIDs()
	}
	opts.Parallel = 1
	rep := &obs.Report{Version: obs.ReportVersion, Seed: opts.seed(), Quick: opts.Quick}
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
	ob := &Observer{Tracer: obs.NewTracer(), Metrics: true, Interval: 100 * sim.Microsecond}
	var groups []*sim.Group
	opts.Observe = func(c *core.Cluster) {
		ob.Attach(c)
		groups = append(groups, c.Group)
	}
	if _, err := Run(id, opts); err != nil {
		return nil, err
	}

	es := &obs.ExperimentSummary{ID: id}
	soj := &obs.Histogram{}
	watermarks := map[string]float64{}
	counters := map[string]uint64{}
	for _, col := range ob.Collectors {
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
	ob.Tracer.EachInstant(func(group, name string, at sim.Time) {
		es.TimelineTotal++
		if len(es.Timeline) < timelineCap {
			es.Timeline = append(es.Timeline, obs.TimelineEvent{TUs: at.Micros(), Group: group, Name: name})
		}
	})
	for _, g := range groups {
		es.Handoffs += g.Crossed()
		es.Rounds += g.Rounds()
		es.Events += g.ExecutedEvents()
	}
	return es, nil
}
