package bench

import (
	"strings"
	"testing"
)

// TestScaleNodesQuick: the sweep produces one row per size with live
// traffic and cross-partition handoffs, and the table is byte-identical
// between the serial window merge and parallel window execution — the
// registry-level statement of the PDES determinism contract.
func TestScaleNodesQuick(t *testing.T) {
	serial, err := Run("scale-nodes", Options{Quick: true, PDESWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(scaleNodeSizes(Options{Quick: true})) {
		t.Fatalf("expected one row per size, got %d", len(serial.Rows))
	}
	for i := range serial.Rows {
		if cell(t, serial, i, 2) == 0 {
			t.Fatalf("row %v: no ops completed", serial.Rows[i])
		}
		if cell(t, serial, i, 7) == 0 {
			t.Fatalf("row %v: no cross-partition traffic", serial.Rows[i])
		}
	}
	parallel, err := Run("scale-nodes", Options{Quick: true, PDESWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(serial.Rows, parallel.Rows) {
		t.Fatalf("scale-nodes diverged across window workers:\n  serial:   %v\n  parallel: %v",
			serial.Rows, parallel.Rows)
	}
}

func rowsEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if strings.Join(a[i], "|") != strings.Join(b[i], "|") {
			return false
		}
	}
	return true
}

// TestScaleNodesPartsOverride: -pdes N reshards the sweep.
func TestScaleNodesPartsOverride(t *testing.T) {
	r, err := Run("scale-nodes", Options{Quick: true, PDESParts: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Rows {
		if got := cell(t, r, i, 1); got != 2 {
			t.Fatalf("row %d: partitions = %v, want 2", i, got)
		}
	}
}

// TestGoldenReplayPDESSubset: the PDES replay axis holds on a quick
// subset — the partitioned scale sweep, a classic experiment (which the
// axis skips: it builds no multi-partition cluster), the faulted mesh
// (barrier-arm fault injection at window boundaries), and the migrating
// mesh (window-boundary migration commits with fault arms landing
// mid-phase) — with per-partition invariant ledgers attached and
// fingerprints byte-compared between 1 and 2 window workers.
func TestGoldenReplayPDESSubset(t *testing.T) {
	replaySubset(t, []string{"scale-nodes", "fig17", "faults-pdes", "migrate-pdes"},
		Options{Quick: true, PDESParts: 2}, replayAxes(4)[1:2])
}
