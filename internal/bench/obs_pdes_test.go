package bench

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The partitioned-observability contract, on the mesh the PDES engine
// was built for:
//
//  1. Non-perturbation: a run with tracing and metrics attached has the
//     same invariant fingerprint (and deterministic stats) as a bare
//     run — sharded sinks emit no events and the collector samples only
//     at window boundaries.
//  2. Worker independence: the exported trace and metrics artifacts are
//     byte-identical at 1, 2 and 4 window workers.

var obsMeshCfg = mesh.Config{
	Nodes: 8, Partitions: 4, Seed: 7,
	Window: 200 * sim.Microsecond,
}

// checkedMesh runs cfg with one invariant checker per partition attached
// after whatever cfg.Observe attaches, and returns the stats, the
// per-partition fingerprints concatenated, and the violation count.
func checkedMesh(cfg mesh.Config) (mesh.Stats, string, int) {
	var chks []*invariant.Checker
	observe := cfg.Observe
	cfg.Observe = func(c *core.Cluster) {
		if observe != nil {
			observe(c)
		}
		chks = c.AttachCheckers()
	}
	s := mesh.Run(cfg)
	var fp string
	violations := 0
	for _, chk := range chks {
		chk.Finish()
		violations += len(chk.Violations())
		fp += chk.Fingerprint()
	}
	return s, fp, violations
}

// observedMesh runs the checked mesh with tracing and metrics attached
// and returns its stats and fingerprint plus the rendered artifacts.
func observedMesh(t *testing.T, workers int) (mesh.Stats, string, int, []byte, []byte) {
	t.Helper()
	tracer := obs.NewTracer()
	var col *obs.Collector
	cfg := obsMeshCfg
	cfg.Workers = workers
	cfg.Observe = func(c *core.Cluster) {
		c.EnableTracing(tracer)
		col = obs.NewCollector(c.Eng, 50*sim.Microsecond)
		c.EnableMetrics(col)
		col.Start()
	}
	s, fp, violations := checkedMesh(cfg)
	var trace, metrics bytes.Buffer
	if err := tracer.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	col.Snapshot()
	if err := col.WriteNDJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	return s, fp, violations, trace.Bytes(), metrics.Bytes()
}

func TestPDESObservabilityNonPerturbing(t *testing.T) {
	bare, bareFP, _ := checkedMesh(obsMeshCfg)
	if bareFP == "" {
		t.Fatal("bare run produced no fingerprint")
	}

	var firstTrace, firstMetrics []byte
	for _, w := range []int{1, 2, 4} {
		s, fp, violations, trace, metrics := observedMesh(t, w)
		if violations != 0 {
			t.Fatalf("workers=%d: %d invariant violations with observability on", w, violations)
		}
		if fp != bareFP {
			t.Fatalf("workers=%d: observability perturbed the invariant fingerprint", w)
		}
		if s.Ops != bare.Ops || s.P50us != bare.P50us || s.P99us != bare.P99us ||
			s.Events != bare.Events || s.Crossed != bare.Crossed || s.Rounds != bare.Rounds {
			t.Fatalf("workers=%d: observability perturbed results:\nbare:     %+v\nobserved: %+v", w, bare, s)
		}
		if firstTrace == nil {
			firstTrace, firstMetrics = trace, metrics
			st, err := obs.ValidateChromeTrace(bytes.NewReader(trace))
			if err != nil {
				t.Fatalf("invalid partitioned trace: %v", err)
			}
			if st.Spans == 0 || st.Handoffs == 0 {
				t.Fatalf("partitioned trace missing content: %d spans, %d handoff pairs", st.Spans, st.Handoffs)
			}
			if mt, err := obs.ValidateMetricsNDJSON(bytes.NewReader(metrics)); err != nil {
				t.Fatalf("invalid partitioned metrics: %v", err)
			} else if mt.Records == 0 {
				t.Fatal("partitioned run produced no metric records")
			}
			continue
		}
		if !bytes.Equal(trace, firstTrace) {
			t.Fatalf("workers=%d: trace bytes differ from workers=1", w)
		}
		if !bytes.Equal(metrics, firstMetrics) {
			t.Fatalf("workers=%d: metrics bytes differ from workers=1", w)
		}
	}
}

// renderReport builds the default observed-run report at the given
// window worker count and renders it.
func renderReport(t *testing.T, opts Options, workers int) (*obs.Report, []byte) {
	t.Helper()
	opts.PDESWorkers = workers
	rep, err := ObsReport(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes()
}

// TestObsReportDeterministic pins the report artifact itself: the bytes
// `ipipe-bench -quick -report -` writes are the same at 1 and at 4
// window workers, and each experiment's share of them hashes to the
// digest committed beside the replay fingerprints (the "obs:" lines of
// testdata/replay_golden.txt; -update rewrites them). On a mismatch the
// rendered experiment is printed, to diff against another commit's
// `ipipe-bench -quick -report -`.
func TestObsReportDeterministic(t *testing.T) {
	opts := Options{Quick: true, Seed: 1}
	rep, serial := renderReport(t, opts, 1)
	if _, parallel := renderReport(t, opts, 4); !bytes.Equal(serial, parallel) {
		t.Fatalf("report bytes differ between 1 and 4 window workers:\n%s\nvs\n%s", serial, parallel)
	}
	for i, es := range rep.Experiments {
		if es.Ops == 0 || es.SojournUs.Count == 0 || es.Events == 0 {
			t.Errorf("%s: report missing expected content: %+v", es.ID, es)
		}
		one := *rep
		one.Experiments = rep.Experiments[i : i+1]
		var buf bytes.Buffer
		if err := one.WriteReport(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, []string{digestLine("obs:"+es.ID, opts.PDESParts, rep.Seed, buf.String())}, buf.String())
	}
	if es := rep.Experiments[1]; es.Handoffs == 0 || es.Rounds == 0 {
		t.Errorf("%s reports no PDES activity: %+v", es.ID, es)
	}
}
