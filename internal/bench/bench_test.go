package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// runQuick serves id's quick result from the one pass over the
// registry (passRun), so a shape test renders nothing of its own.
func runQuick(t *testing.T, id string) *Result {
	t.Helper()
	run, err := passRun(id)
	if err != nil {
		t.Fatal(err)
	}
	r := run.result
	if len(r.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	var buf bytes.Buffer
	r.Fprint(&buf)
	if buf.Len() == 0 {
		t.Fatalf("%s printed nothing", id)
	}
	return r
}

func cell(t *testing.T, r *Result, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(r.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell %d,%d = %q: %v", row, col, r.Rows[row][col], err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "table2", "table3", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "floem", "nf", "scale-shards", "scale-batch",
		"scale-nodes",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown id accepted")
	}
	for _, id := range IDs() {
		if Title(id) == "" {
			t.Errorf("%s has no title", id)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	r := runQuick(t, "fig2")
	// 12 core rows; bandwidth monotone nondecreasing in cores per size.
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for col := 1; col <= 6; col++ {
		for row := 1; row < 12; row++ {
			if cell(t, r, row, col) < cell(t, r, row-1, col)-0.01 {
				t.Fatalf("bandwidth not monotone at row %d col %d", row, col)
			}
		}
	}
	// 64B with all cores stays below line rate.
	if cell(t, r, 11, 1) > 9 {
		t.Fatal("64B reached line rate")
	}
}

func TestFig4Shape(t *testing.T) {
	r := runQuick(t, "fig4")
	// Bandwidth non-increasing in added latency for each column.
	for col := 1; col <= 4; col++ {
		for row := 1; row < len(r.Rows); row++ {
			if cell(t, r, row, col) > cell(t, r, row-1, col)+0.05 {
				t.Fatalf("bandwidth increased with latency at row %d col %d", row, col)
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	r := runQuick(t, "fig5")
	// 12-core latency stays within ~15% of 6-core (shared queue, I2).
	for row := range r.Rows {
		a6, a12 := cell(t, r, row, 1), cell(t, r, row, 2)
		if a12 > a6*1.15 {
			t.Fatalf("12-core avg %.2f exceeds 6-core %.2f by >15%%", a12, a6)
		}
	}
}

func TestFig6Speedup(t *testing.T) {
	r := runQuick(t, "fig6")
	for row := range r.Rows {
		nic, dpdk := cell(t, r, row, 1), cell(t, r, row, 3)
		if nic >= dpdk {
			t.Fatal("NIC messaging should beat DPDK")
		}
	}
}

func TestFig8Shape(t *testing.T) {
	r := runQuick(t, "fig8")
	// Non-blocking beats blocking at every payload.
	for row := range r.Rows {
		if cell(t, r, row, 2) <= cell(t, r, row, 1) {
			t.Fatal("non-blocking read should beat blocking")
		}
	}
}

func TestFig13CoreSavings(t *testing.T) {
	r := runQuick(t, "fig13")
	// iPipe never uses more host cores than DPDK (saved ≥ 0 everywhere).
	for row := range r.Rows {
		if cell(t, r, row, 5) < -0.05 {
			t.Fatalf("negative core savings in row %d: %v", row, r.Rows[row])
		}
	}
}

func TestFig16Orderings(t *testing.T) {
	r := runQuick(t, "fig16")
	for row := range r.Rows {
		fcfs, drr, hybrid := cell(t, r, row, 3), cell(t, r, row, 4), cell(t, r, row, 5)
		if r.Rows[row][1] == "low(exp)" {
			// Hybrid tracks FCFS (within 25%) and beats DRR.
			if hybrid > fcfs*1.25 {
				t.Errorf("row %d: low-dispersion hybrid %.0f strays from FCFS %.0f", row, hybrid, fcfs)
			}
			if hybrid > drr {
				t.Errorf("row %d: low-dispersion hybrid %.0f worse than DRR %.0f", row, hybrid, drr)
			}
		}
	}
}

func TestFig17Overhead(t *testing.T) {
	r := runQuick(t, "fig17")
	for row := range r.Rows {
		ovh := cell(t, r, row, 5)
		if ovh < 0 || ovh > 60 {
			t.Errorf("framework overhead %.1f%% implausible (paper ≈12%%)", ovh)
		}
	}
}

func TestFig18MemtableDominates(t *testing.T) {
	r := runQuick(t, "fig18")
	var memTotal, maxOther float64
	for row := range r.Rows {
		total := cell(t, r, row, 5)
		if r.Rows[row][0] == "LSMmem." {
			memTotal = total
		} else if total > maxOther {
			maxOther = total
		}
	}
	if memTotal < 25 || memTotal > 55 {
		t.Fatalf("LSM Memtable migration %.1fms, want ≈38ms (paper ≈36ms phase 3)", memTotal)
	}
	if memTotal < 10*maxOther {
		t.Fatalf("Memtable (%.1fms) should dwarf other actors (max %.1fms)", memTotal, maxOther)
	}
}

func TestNFInPaperRange(t *testing.T) {
	r := runQuick(t, "nf")
	// Firewall p50s land in the paper's 3.65–19.41µs envelope (±50%).
	for row := 0; row < 2; row++ {
		v := cell(t, r, row, 3)
		if v < 2 || v > 30 {
			t.Fatalf("firewall latency %.2fµs outside plausible envelope", v)
		}
	}
	// IPSec: 10GbE close to link, 25GbE close to link.
	g10, g25 := cell(t, r, 2, 3), cell(t, r, 3, 3)
	if g10 < 6 || g10 > 10.5 {
		t.Fatalf("IPSec 10GbE %.1f Gbps (paper 8.6)", g10)
	}
	if g25 < 15 || g25 > 26 {
		t.Fatalf("IPSec 25GbE %.1f Gbps (paper 22.9)", g25)
	}
}

func TestFloemOrdering(t *testing.T) {
	r := runQuick(t, "floem")
	// iPipe per-core ≥ Floem per-core at both sizes.
	if cell(t, r, 1, 4) < cell(t, r, 0, 4) {
		t.Fatal("iPipe should beat Floem at 512B")
	}
	if cell(t, r, 3, 4) < cell(t, r, 2, 4) {
		t.Fatal("iPipe should beat Floem at 64B")
	}
}

func TestTablesRender(t *testing.T) {
	for _, id := range []string{"table2", "table3", "fig7", "fig9", "fig10"} {
		runQuick(t, id)
	}
}

func TestAblationRingBatchingMonotone(t *testing.T) {
	r := runQuick(t, "ablate-ring")
	// Throughput rises and per-message core cost falls with batch size.
	for row := 1; row < len(r.Rows); row++ {
		if cell(t, r, row, 1) < cell(t, r, row-1, 1) {
			t.Fatal("batching should not reduce message throughput")
		}
		if cell(t, r, row, 2) > cell(t, r, row-1, 2) {
			t.Fatal("batching should not raise per-message core cost")
		}
	}
}

func TestAblationQueueShuffleTail(t *testing.T) {
	r := runQuick(t, "ablate-queue")
	// With few flows at high load, the shuffle layer's p99 should not
	// beat the hardware shared queue's by a wide margin (steering
	// imbalance costs something); both serve everything.
	for row := range r.Rows {
		if cell(t, r, row, 5) == 0 {
			t.Fatal("queue model served nothing")
		}
	}
}

func TestAblationMigrationHelps(t *testing.T) {
	r := runQuick(t, "ablate-migration")
	staticP50, dynP50 := cell(t, r, 0, 2), cell(t, r, 1, 2)
	if dynP50 >= staticP50 {
		t.Fatalf("dynamic migration p50 %.0f should beat static %.0f", dynP50, staticP50)
	}
	if cell(t, r, 1, 4) == 0 {
		t.Fatal("dynamic run performed no migrations")
	}
}

func TestAblationAccelSpeedups(t *testing.T) {
	r := runQuick(t, "ablate-accel")
	if len(r.Rows) < 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestAblationWorkingSetCrossover(t *testing.T) {
	r := runQuick(t, "ablate-workingset")
	// The NIC/host execution ratio must worsen once the working set
	// exceeds the NIC's 4MB L2 (I5).
	small := cell(t, r, 0, 4)
	big := cell(t, r, 3, 4)
	if big <= small {
		t.Fatalf("NIC/host ratio %f should worsen beyond L2 capacity (was %f)", big, small)
	}
}

func TestTable3LiveMatchesProfiles(t *testing.T) {
	r := runQuick(t, "table3-live")
	for row := range r.Rows {
		want, got := cell(t, r, row, 1), cell(t, r, row, 2)
		// The runtime adds ≈0.8µs of forwarding tax + reply send per
		// request; anything beyond ~1.5µs absolute drift means the cost
		// model and the runtime disagree.
		if diff := got - want; diff < -1.0 || diff > 1.5 {
			t.Errorf("%s: measured %.2fµs vs Table 3 %.2fµs", r.Rows[row][0], got, want)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	r := runQuick(t, "table2")
	var buf bytes.Buffer
	r.FprintCSV(&buf)
	out := buf.String()
	if !strings.HasPrefix(out, "device,") {
		t.Fatalf("CSV header missing: %q", out[:40])
	}
	if strings.Count(out, "\n") < len(r.Rows)+1 {
		t.Fatal("CSV rows missing")
	}
}

// TestScaleShardsQuick pins the headline scale-out acceptance: at
// θ=0.99 the 8-shard deployment must reach at least 80% of linear
// scaling over the 1-shard baseline (quick grid is {1,8} shards).
func TestScaleShardsQuick(t *testing.T) {
	r := runQuick(t, "scale-shards")
	if len(r.Rows) != 2 {
		t.Fatalf("quick scale-shards rows = %d, want 2", len(r.Rows))
	}
	if got := cell(t, r, 0, 1); got != 1 {
		t.Fatalf("row 0 shards = %v, want 1", got)
	}
	if got := cell(t, r, 1, 1); got != 8 {
		t.Fatalf("row 1 shards = %v, want 8", got)
	}
	base, scaled := cell(t, r, 0, 2), cell(t, r, 1, 2)
	if base <= 0 || scaled <= 0 {
		t.Fatalf("non-positive throughput: base %v scaled %v", base, scaled)
	}
	if ratio := scaled / base; ratio < 6.4 {
		t.Errorf("8-shard throughput %.1fx over 1 shard, want >= 6.4x (80%% of linear)", ratio)
	}
	for row := 0; row < 2; row++ {
		if bal := cell(t, r, row, 7); bal < 1 || bal > 2.5 {
			t.Errorf("row %d balance = %v, want within [1, 2.5]", row, bal)
		}
	}
}

// TestScaleBatchQuick checks train formation and that batching does not
// cost measurable throughput on either delivery path.
func TestScaleBatchQuick(t *testing.T) {
	r := runQuick(t, "scale-batch")
	if len(r.Rows) != 4 {
		t.Fatalf("quick scale-batch rows = %d, want 4", len(r.Rows))
	}
	for _, path := range []int{0, 1} {
		unbatched, batched := r.Rows[path*2], r.Rows[path*2+1]
		base, err := strconv.ParseFloat(unbatched[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		tput, err := strconv.ParseFloat(batched[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if tput < 0.85*base || tput > 1.15*base {
			t.Errorf("%s batched tput %v vs unbatched %v, want within 15%%", batched[0], tput, base)
		}
		trains, err := strconv.ParseFloat(batched[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		avg, err := strconv.ParseFloat(batched[6], 64)
		if err != nil {
			t.Fatal(err)
		}
		if trains <= 0 || avg < 1.5 {
			t.Errorf("%s trains = %v avg = %v, want coalescing (trains > 0, avg >= 1.5)", batched[0], trains, avg)
		}
		if got := unbatched[5]; got != "0" {
			t.Errorf("%s unbatched trains = %q, want 0", unbatched[0], got)
		}
	}
}
