package bench

import (
	"strings"
	"testing"
)

// TestScaleNodesQuick: the sweep produces one row per size with live
// traffic and cross-partition handoffs, and the table is byte-identical
// at 2 and at 4 window workers — beside the one pass's serial ≡ 2
// workers, the registry-level statement of the PDES determinism
// contract.
func TestScaleNodesQuick(t *testing.T) {
	two := runQuick(t, "scale-nodes")
	if len(two.Rows) != len(scaleNodeSizes(Options{Quick: true})) {
		t.Fatalf("expected one row per size, got %d", len(two.Rows))
	}
	for i := range two.Rows {
		if cell(t, two, i, 2) == 0 {
			t.Fatalf("row %v: no ops completed", two.Rows[i])
		}
		if cell(t, two, i, 7) == 0 {
			t.Fatalf("row %v: no cross-partition traffic", two.Rows[i])
		}
	}
	four, err := Run("scale-nodes", Options{Quick: true, PDESWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(two.Rows, four.Rows) {
		t.Fatalf("scale-nodes diverged across window workers:\n  2 workers: %v\n  4 workers: %v",
			two.Rows, four.Rows)
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
// subset at both seeds — the partitioned scale sweep, a classic
// experiment (which the axis skips: it builds no multi-partition
// cluster), the faulted mesh and the migrating mesh — with per-partition
// invariant ledgers attached and fingerprints byte-compared between 1
// and 2 window workers and against their pdes=2 lines of the golden file.
func TestGoldenReplayPDESSubset(t *testing.T) {
	replaySubset(t, pdes2IDs, Options{Quick: true, PDESParts: 2}, replayAxes(4)[1:2])
}
