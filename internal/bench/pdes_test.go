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
// subset — the partitioned scale sweep, a classic experiment as the
// unpartitioned control, the faulted mesh (barrier-arm fault injection
// at window boundaries), and the migrating mesh (window-boundary
// migration commits with fault arms landing mid-phase) — with
// per-partition invariant ledgers attached and fingerprints
// byte-compared between worker counts.
func TestGoldenReplayPDESSubset(t *testing.T) {
	opts := Options{Quick: true, PDESParts: 2}
	rep, err := GoldenReplayPDES([]string{"scale-nodes", "fig17", "faults-pdes", "migrate-pdes"}, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clusters == 0 || rep.Checks == 0 {
		t.Fatalf("replay checked nothing: %+v", rep)
	}
	if !rep.OK() {
		var buf strings.Builder
		rep.Fprint(&buf)
		t.Fatal(buf.String())
	}
	checkGolden(t, rep, opts)
}

// TestPDESBenchQuick: the speedup matrix measures both worker counts,
// certifies fingerprints, and records the machine environment.
func TestPDESBenchQuick(t *testing.T) {
	rep := PDESBench(Options{Quick: true}, []int{8}, []int{2})
	if rep.GOMAXPROCS == 0 || rep.NumCPU == 0 {
		t.Fatalf("environment not recorded: %+v", rep)
	}
	if len(rep.Entries) != 2 {
		t.Fatalf("expected baseline + 1 parallel entry, got %d", len(rep.Entries))
	}
	for _, e := range rep.Entries {
		if !e.FingerprintOK {
			t.Fatalf("workers=%d diverged from the serial merge", e.Workers)
		}
		if e.Ops == 0 || e.Events == 0 {
			t.Fatalf("degenerate measurement: %+v", e)
		}
	}
	if rep.Entries[0].Ops != rep.Entries[1].Ops {
		t.Fatalf("ops differ across worker counts: %d vs %d", rep.Entries[0].Ops, rep.Entries[1].Ops)
	}
}
