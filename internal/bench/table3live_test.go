package bench

import (
	"slices"
	"testing"

	"repro/internal/actor"
	"repro/internal/spec"
)

// TestTable3LiveMatchesProfiles pins what the runtime adds to Table 3:
// a row measures ExecLat1KB × 1000/1024 (its requests carry 1000 bytes)
// plus one forwarding-tax-and-reply charge that every row shares. Each
// row's residual must lie within 0.01µs of the median residual, so any
// two rows agree within 0.02µs, and within [0.8, 1.0]µs.
func TestTable3LiveMatchesProfiles(t *testing.T) {
	r := runQuick(t, "table3-live")
	if len(r.Rows) != len(table3Rows) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(table3Rows))
	}
	residual := make([]float64, len(r.Rows))
	for row := range r.Rows {
		residual[row] = cell(t, r, row, 2) - cell(t, r, row, 1)*1000/1024
	}
	sorted := slices.Clone(residual)
	slices.Sort(sorted)
	median := sorted[len(sorted)/2]
	for row, got := range residual {
		if d := got - median; got < 0.8 || got > 1.0 || d < -0.01 || d > 0.01 {
			t.Errorf("%s: runtime charge %.3fµs, want the shared %.3fµs ± 0.01 within [0.8, 1.0]",
				r.Rows[row][0], got, median)
		}
	}
}

func TestAllWorkloadsHaveProfiles(t *testing.T) {
	for _, name := range table3Rows {
		if _, ok := spec.WorkloadByName(name); !ok {
			t.Errorf("workload %q has no Table 3 profile", name)
		}
	}
}

func TestWorkloadActorChargesProfile(t *testing.T) {
	a := profileActor(1, "Flow monitor")
	prof, _ := spec.WorkloadByName("Flow monitor")
	// Without a Reply the handler never touches its context.
	cost := a.OnMessage(nil, actor.Msg{Data: make([]byte, 1024)})
	if cost != prof.ExecLat1KB {
		t.Fatalf("1KB cost %v, want Table 3's %v", cost, prof.ExecLat1KB)
	}
	small := a.OnMessage(nil, actor.Msg{Data: make([]byte, 16)})
	if small >= cost {
		t.Fatal("small requests should cost less")
	}
}

func TestWorkloadActorUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unprofiled workload")
		}
	}()
	profileActor(1, "Nope")
}
