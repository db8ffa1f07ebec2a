package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
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
			if !reflect.DeepEqual(bare.Notes, observed.Notes) {
				t.Fatalf("observation perturbed notes:\nbare:     %v\nobserved: %v",
					bare.Notes, observed.Notes)
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

// TestTraceMatchesCounters holds every node's trace lanes to its layer
// counters, on two traced runs that between them downgrade and upgrade
// actors, move cores, run DRR and host executions, and push and pull
// actors: the spans on the "nic core" lanes are the scheduler's
// executions plus forwards, those on the "host core" lanes the host's
// executions, and the instants on the "sched" lane its decisions.
func TestTraceMatchesCounters(t *testing.T) {
	covered := map[string]uint64{}
	for _, id := range []string{"fig18", "ablate-migration"} {
		var clusters []*core.Cluster
		ob := &Observer{Tracer: obs.NewTracer()}
		observe := func(c *core.Cluster) {
			ob.Attach(c)
			clusters = append(clusters, c)
		}
		if _, err := Run(id, Options{Quick: true, Parallel: 1, Observe: observe}); err != nil {
			t.Fatal(err)
		}
		for group, lanes := range laneCounts(t, ob.Tracer) {
			prefix, name, _ := strings.Cut(group, "/")
			ci, err := strconv.Atoi(strings.TrimPrefix(prefix, "r"))
			if err != nil || ci >= len(clusters) {
				t.Fatalf("%s: trace group %q names no cluster", id, group)
			}
			n := clusters[ci].Node(name)
			if n == nil {
				continue // a group of no node (the fault injector's)
			}
			check := func(lane string, got int, want uint64, what string) {
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
			covered["DRR spans"] += uint64(lanes["nic core"].drr)
			covered["downgrades"] += s.Downgrades
			covered["upgrades"] += s.Upgrades
			covered["pushes"] += s.PushMigrations
			covered["pulls"] += s.PullMigrations
			covered["core moves"] += s.CoreMoves
		}
	}
	for _, what := range []string{"host executions", "DRR spans", "downgrades", "upgrades", "pushes", "pulls", "core moves"} {
		if covered[what] == 0 {
			t.Errorf("no %s in the traced runs: the check does not cover them", what)
		}
	}
}

// laneCount is what one kind of lane of one trace group holds.
type laneCount struct{ spans, instants, drr int }

// laneCounts reads tr's Chrome trace back and counts, per group, the
// spans and instants on each kind of lane ("nic core 3" counts as "nic
// core").
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
				lanes[ev.Tid] = [2]string{groups[ev.Pid], strings.TrimRight(ev.Args.Name, " 0123456789")}
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
		case "i":
			c.instants++
		default:
			t.Fatalf("unexpected trace event phase %q", ev.Ph)
		}
		out[lane[0]][lane[1]] = c
	}
	return out
}
