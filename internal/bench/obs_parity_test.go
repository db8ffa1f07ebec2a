package bench

import (
	"bytes"
	"reflect"
	"testing"

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
