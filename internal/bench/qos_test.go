package bench

import (
	"testing"

	"repro/internal/qos"
)

// TestQoSStormContract is the acceptance gate for the tenant-storm
// experiment: the misbehaving tenant offers 4x its admitted rate while
// a fault storm rages, and the QoS stack must (a) hold the well-behaved
// tenant's p99 SLO outside the storm, (b) never shed a control-lane
// message, (c) reject the noisy tenant's excess at the edge, and
// (d) drive the SLO controller to act on the breach.
func TestQoSStormContract(t *testing.T) {
	o := qosStormRun(Options{Quick: true, Seed: 1, Parallel: 1})

	if calm := o.calm.Percentile(99); calm > o.sloUs {
		t.Errorf("calm-phase p99 %.1fus breaches the %.0fus SLO", calm, o.sloUs)
	}
	if post := o.post.Percentile(99); post > o.sloUs {
		t.Errorf("post-storm p99 %.1fus breaches the %.0fus SLO", post, o.sloUs)
	}
	if storm := o.storm.Percentile(99); storm <= o.sloUs {
		t.Errorf("storm p99 %.1fus never breached the SLO — the storm is too mild to mean anything", storm)
	}
	if o.shed[qos.LaneControl] != 0 {
		t.Errorf("control lane shed %d messages; the contract says never", o.shed[qos.LaneControl])
	}
	if o.shed[qos.LaneTelemetry] == 0 {
		t.Error("telemetry flood never hit the shed watermark")
	}
	if o.rejected[qosTenantNoisy] == 0 {
		t.Error("noisy tenant at 4x its budget was never rejected")
	}
	if o.rejected[qosTenantProd] != 0 {
		t.Errorf("well-behaved prod tenant was rejected %d times", o.rejected[qosTenantProd])
	}
	if o.shrinks+o.tightens+o.reshards == 0 {
		t.Error("controller never acted on the storm breach")
	}
	if o.ticks == 0 {
		t.Error("controller never ticked")
	}
	// Lane conservation at quiescence: everything enqueued was delivered.
	for l := qos.Lane(0); l < qos.NumLanes; l++ {
		if o.enq[l] != o.del[l] {
			t.Errorf("%s: enqueued %d != delivered %d", l, o.enq[l], o.del[l])
		}
	}
}

// TestQoSSkewEscalation checks the controller's full escalation chain
// on a mid-run skew shift: batch-window shrink, threshold tighten, and
// finally a reshard that spreads the hot range — after which latency
// must actually recover.
func TestQoSSkewEscalation(t *testing.T) {
	o := qosSkewRun(Options{Quick: true, Seed: 1, Parallel: 1})

	if o.shrinks == 0 {
		t.Error("controller never shrank the batch window")
	}
	if o.tightens == 0 {
		t.Error("controller never tightened the migration thresholds")
	}
	if o.reshards != 1 {
		t.Errorf("controller resharded %d times, want exactly 1", o.reshards)
	}
	if o.liveShards != 3 {
		t.Errorf("%d live shards after the reshard, want 3", o.liveShards)
	}
	spread, hot, rec := o.spread.Percentile(50), o.hot.Percentile(50), o.recovered.Percentile(50)
	if hot <= spread {
		t.Errorf("hot-phase p50 %.1fus not above spread-phase %.1fus — the skew shift did nothing", hot, spread)
	}
	if rec >= hot {
		t.Errorf("recovered p50 %.1fus did not improve on hot-phase %.1fus", rec, hot)
	}
	if rec > o.sloUs {
		t.Errorf("recovered p50 %.1fus still above the %.0fus SLO", rec, o.sloUs)
	}
}

// TestQoSLanesContract checks the partitioned lane/admission run: every
// watermark action fires where designed, and only there.
func TestQoSLanesContract(t *testing.T) {
	o := qosLanesRun(Options{Quick: true, Seed: 1, Parallel: 1})

	if o.shed[qos.LaneControl] != 0 {
		t.Errorf("control lane shed %d messages", o.shed[qos.LaneControl])
	}
	if o.shed[qos.LaneData] != 0 {
		t.Errorf("data lane shed %d messages; data is deferred, never dropped", o.shed[qos.LaneData])
	}
	if o.shed[qos.LaneTelemetry] == 0 {
		t.Error("telemetry bursts never shed")
	}
	if o.backpressured == 0 {
		t.Error("bulk data stream never hit the backpressure watermark")
	}
	if o.rejected[0] != 0 {
		t.Errorf("well-behaved even tenant rejected %d times", o.rejected[0])
	}
	if o.rejected[1] == 0 {
		t.Error("odd tenant over budget was never rejected")
	}
	if o.ops == 0 || o.crossed == 0 {
		t.Errorf("mesh did no work: ops=%d handoffs=%d", o.ops, o.crossed)
	}
}

// TestQoSLanesPDESDeterminism runs the partitioned experiment at 1, 2,
// and 4 window workers and requires identical outcomes — the per-worker
// fingerprint contract, asserted on the raw counters.
func TestQoSLanesPDESDeterminism(t *testing.T) {
	base := qosLanesRun(Options{Quick: true, Seed: 1, Parallel: 1, PDESWorkers: 1})
	for _, workers := range []int{2, 4} {
		got := qosLanesRun(Options{Quick: true, Seed: 1, Parallel: 1, PDESWorkers: workers})
		if got != base {
			t.Errorf("outcome at %d workers diverged from 1 worker:\n 1: %+v\n%2d: %+v",
				workers, base, workers, got)
		}
	}
}

// TestGoldenReplayQoSSubset replays the whole qos family at both seeds
// along both determinism axes (sweep serial-vs-parallel, PDES 1-vs-2
// workers) with the invariant checker attached to every cluster.
func TestGoldenReplayQoSSubset(t *testing.T) {
	replaySubset(t, []string{"qos-storm", "qos-skew", "qos-lanes", "qos-storm-pdes"},
		Options{Quick: true}, replayAxes(4)[:2])
}
