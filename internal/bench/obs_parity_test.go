package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// observedRun executes an experiment serially under an Observer (the
// -trace/-metrics path of ipipe-bench) and returns the result plus the
// rendered trace and metrics bytes.
func observedRun(t *testing.T, id string) (*Result, []byte, []byte) {
	t.Helper()
	ob := &Observer{Tracer: obs.NewTracer(), Metrics: true, Interval: 100 * sim.Microsecond}
	r, err := Run(id, Options{Quick: true, Parallel: 1, Observe: ob.Attach})
	if err != nil {
		t.Fatal(err)
	}
	var trace, metrics bytes.Buffer
	if err := ob.Tracer.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := ob.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	return r, trace.Bytes(), metrics.Bytes()
}

// TestObservedArtifactsGolden pins the bytes `ipipe-bench -quick -trace
// -metrics` writes across commits: each experiment's trace and metrics
// hash to the "obs:trace:" and "obs:metrics:" lines of
// testdata/replay_golden.txt (-update rewrites them). Together the three
// cover push and pull migrations, DRR spans and downgrades, host lanes
// and partitioned sinks.
func TestObservedArtifactsGolden(t *testing.T) {
	for _, id := range []string{"ablate-migration", "floem", "scale-nodes"} {
		_, trace, metrics := observedRun(t, id)
		checkGolden(t, []string{
			digestLine("obs:trace:"+id, 0, 1, string(trace)),
			digestLine("obs:metrics:"+id, 0, 1, string(metrics)),
		}, "")
	}
}

// TestObservedRunParity extends the determinism contract to the
// observability path: running an experiment with tracing and metrics
// enabled must (a) leave the experiment's rows and notes byte-identical
// to a bare run, (b) produce valid trace and metrics artifacts, and
// (c) reproduce those artifacts byte-for-byte on a second run. faults-dt
// and the qos runs carry a ticker of their own (the DT sweep, the SLO
// controller) beside the metrics collector, so they also pin that an
// observed run ends when its work does.
func TestObservedRunParity(t *testing.T) {
	for _, id := range []string{"fig17", "faults-dt", "qos-storm", "qos-skew"} {
		t.Run(id, func(t *testing.T) {
			bare, err := Run(id, Options{Quick: true, Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			observed, trace1, metrics1 := observedRun(t, id)
			if !reflect.DeepEqual(bare.Rows, observed.Rows) {
				t.Fatalf("observation perturbed experiment rows:\nbare:     %v\nobserved: %v",
					bare.Rows, observed.Rows)
			}
			if !reflect.DeepEqual(bare.notes, observed.notes) {
				t.Fatalf("observation perturbed notes:\nbare:     %v\nobserved: %v",
					bare.notes, observed.notes)
			}
			if st, err := obs.ValidateChromeTrace(bytes.NewReader(trace1)); err != nil {
				t.Fatalf("invalid trace: %v", err)
			} else if st.Spans == 0 {
				t.Fatal("observed experiment produced an empty trace")
			}
			if st, err := obs.ValidateMetricsNDJSON(bytes.NewReader(metrics1)); err != nil {
				t.Fatalf("invalid metrics: %v", err)
			} else if st.Records == 0 {
				t.Fatal("observed experiment produced no metric records")
			}
			_, trace2, metrics2 := observedRun(t, id)
			if !bytes.Equal(trace1, trace2) {
				t.Fatal("repeated observed run produced different trace bytes")
			}
			if !bytes.Equal(metrics1, metrics2) {
				t.Fatal("repeated observed run produced different metrics bytes")
			}
		})
	}
}

// TestTraceMatchesCounters holds every node's trace lanes to the
// counters of the layer that emits them, on traced runs that between
// them downgrade and upgrade actors, move cores, run DRR and host
// executions, push and pull actors, cross the message rings, invoke
// accelerators and pass a PPS-capped traffic gate:
//   - the spans on the "nic core" lanes are the scheduler's executions
//     plus forwards, those on the "host core" lanes the host's
//     executions, and the instants on the "sched" lane its decisions;
//   - the spans on the "dma" lane are the DMA engine's reads and writes;
//   - the spans on each "accel <name>" lane, stalls aside, are the
//     unit's invocations;
//   - the spans on the "traffic mgr" lane are the gate's admissions on
//     a PPS-capped card, and none on a transparent gate;
//   - a cluster's "link tx" and "link rx" spans, over every port, are
//     each the packets its network delivered (the runs drain).
func TestTraceMatchesCounters(t *testing.T) {
	covered := map[string]uint64{}
	for _, id := range []string{"fig18", "ablate-migration", "nf", "pps-capped"} {
		var clusters []*core.Cluster
		ob := &Observer{Tracer: obs.NewTracer()}
		opts := Options{Quick: true, Parallel: 1, Observe: func(c *core.Cluster) {
			ob.Attach(c)
			clusters = append(clusters, c)
		}}
		if id == "pps-capped" {
			ppsCappedEcho(t, opts)
		} else if _, err := Run(id, opts); err != nil {
			t.Fatal(err)
		}
		frames := make([][2]int, len(clusters)) // link tx, link rx spans per cluster
		for group, lanes := range laneCounts(t, ob.Tracer) {
			prefix, name, _ := strings.Cut(group, "/")
			ci, err := strconv.Atoi(strings.TrimPrefix(prefix, "r"))
			if err != nil || ci >= len(clusters) {
				t.Fatalf("%s: trace group %q names no cluster", id, group)
			}
			frames[ci][0] += lanes["link tx"].spans
			frames[ci][1] += lanes["link rx"].spans
			n := clusters[ci].Node(name)
			if n == nil {
				continue // a client's group, or the fault injector's
			}
			check := func(lane string, got int, want uint64, what string) {
				t.Helper()
				if uint64(got) != want {
					t.Errorf("%s %s: %d on its %q lanes, want %d (%s)", id, group, got, lane, want, what)
				}
			}
			check("host core", lanes["host core"].spans, n.Host.Completed, "host executions")
			covered["host executions"] += n.Host.Completed
			s := n.Sched
			if s == nil {
				continue
			}
			check("nic core", lanes["nic core"].spans, s.Completed+s.Forwarded, "NIC executions and forwards")
			check("sched", lanes["sched"].instants, s.Downgrades+s.Upgrades+s.PushMigrations+s.PullMigrations+s.CoreMoves,
				"downgrades, upgrades, pushes, pulls and core moves")
			check("dma", lanes["dma"].spans, n.DMA.Reads+n.DMA.Writes, "DMA reads and writes")
			for unit := range n.NICModel.Accels {
				lane := lanes["accel "+unit]
				check("accel "+unit, lane.spans-lane.stalls, n.Accels.Invokes(unit), "invocations")
				covered["accel invocations"] += n.Accels.Invokes(unit)
			}
			admits := n.Gate.Admitted
			if n.NICModel.PPSCap == 0 {
				admits = 0 // a transparent gate emits no span
			}
			check("traffic mgr", lanes["traffic mgr"].spans, admits, "admissions through a PPS-capped gate")
			covered["DRR spans"] += uint64(lanes["nic core"].drr)
			covered["downgrades"] += s.Downgrades
			covered["upgrades"] += s.Upgrades
			covered["pushes"] += s.PushMigrations
			covered["pulls"] += s.PullMigrations
			covered["core moves"] += s.CoreMoves
			covered["DMA ops"] += n.DMA.Reads + n.DMA.Writes
			covered["capped admissions"] += admits
		}
		for ci, cl := range clusters {
			for i, lane := range []string{"link tx", "link rx"} {
				if uint64(frames[ci][i]) != cl.Net.Delivered() {
					t.Errorf("%s r%02d: %d spans on its %q lanes, want %d (packets delivered)",
						id, ci, frames[ci][i], lane, cl.Net.Delivered())
				}
			}
			covered["packets"] += cl.Net.Delivered()
		}
	}
	for _, what := range []string{"host executions", "DRR spans", "downgrades", "upgrades", "pushes", "pulls",
		"core moves", "DMA ops", "accel invocations", "capped admissions", "packets"} {
		if covered[what] == 0 {
			t.Errorf("no %s in the traced runs: the check does not cover them", what)
		}
	}
}

// ppsCappedEcho runs closed-loop echo requests against a NIC-resident
// actor on a Stingray, whose traffic gate admits at most PPSCap packets
// per second, and drains the engine.
func ppsCappedEcho(t *testing.T, opts Options) {
	t.Helper()
	cl := opts.cluster()
	n := cl.AddNode(core.Config{Name: "srv", NIC: spec.Stingray_PS225(), DisableMigration: true})
	echo := &actor.Actor{ID: 1, PinNIC: true, OnMessage: func(ctx actor.Ctx, m actor.Msg) sim.Time {
		ctx.Reply(m)
		return sim.Microsecond
	}}
	if err := n.Register(echo, true, 1<<20); err != nil {
		t.Fatal(err)
	}
	client := workload.NewClient(cl, "cli", n.NICModel.LinkGbps)
	client.ClosedLoop(8, 200*sim.Microsecond, func(i uint64) workload.Request {
		return workload.Request{Node: "srv", Dst: 1, Size: 256, FlowID: i}
	})
	cl.Eng.Run()
}

// laneCount is what one kind of lane of one trace group holds.
type laneCount struct{ spans, instants, drr, stalls int }

// laneCounts reads tr's Chrome trace back and counts, per group, the
// spans and instants on each kind of lane (the per-core lanes fold:
// "nic core 3" counts as "nic core").
func laneCounts(t *testing.T, tr *obs.Tracer) map[string]map[string]laneCount {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Pid, Tid int
			Args     struct{ Name string }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	groups := map[int]string{}
	lanes := map[int][2]string{} // tid → group, lane kind
	out := map[string]map[string]laneCount{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			switch ev.Name {
			case "process_name":
				groups[ev.Pid] = ev.Args.Name
				out[ev.Args.Name] = map[string]laneCount{}
			case "thread_name":
				kind := ev.Args.Name
				if strings.HasPrefix(kind, "nic core ") || strings.HasPrefix(kind, "host core ") {
					kind = strings.TrimRight(kind, " 0123456789")
				}
				lanes[ev.Tid] = [2]string{groups[ev.Pid], kind}
			}
			continue
		}
		lane := lanes[ev.Tid]
		c := out[lane[0]][lane[1]]
		switch ev.Ph {
		case "X":
			c.spans++
			if strings.HasSuffix(ev.Name, " [drr]") {
				c.drr++
			}
			if strings.HasSuffix(ev.Name, " [stall]") {
				c.stalls++
			}
		case "i":
			c.instants++
		default:
			t.Fatalf("unexpected trace event phase %q", ev.Ph)
		}
		out[lane[0]][lane[1]] = c
	}
	return out
}
