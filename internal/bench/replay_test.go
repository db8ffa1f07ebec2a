package bench

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/replay_golden.txt from this run's digests")

const goldenPath = "testdata/replay_golden.txt"

// checkGolden compares "id seed=N sha256" digests — the replay's
// fingerprints, the observed-run report's "obs:id" entries — with the
// committed ones: the cross-commit oracle. The in-run comparison proves
// serial ≡ parallel, this proves today ≡ the commit that wrote the file.
// Keys carry the partition override because it shapes the clusters an
// experiment builds. `go test ./internal/bench -run 'GoldenReplay|ObsReport'
// -update` rewrites the entries the run produced, after an intentional
// behavior change. detail, if any, is printed under a mismatch.
func checkGolden(t *testing.T, digests []string, opts Options, detail string) {
	t.Helper()
	golden := map[string]string{}
	data, err := os.ReadFile(goldenPath)
	if err != nil && !*update {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			golden[line[:i]] = line[i+1:]
		}
	}
	for _, d := range digests {
		f := strings.Fields(d) // id, seed=N, sha256
		key, sum := fmt.Sprintf("%s pdes=%d %s", f[0], opts.PDESParts, f[1]), f[2]
		switch want, ok := golden[key]; {
		case *update:
			golden[key] = sum
		case !ok:
			t.Errorf("%s: no golden digest (regenerate with -update)", key)
		case want != sum:
			t.Errorf("%s: digest %s, golden %s\n%s", key, sum, want, detail)
		}
	}
	if !*update {
		return
	}
	keys := make([]string, 0, len(golden))
	for k := range golden {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# sha256 of quick-mode golden-replay fingerprints, one per (id, -pdes, seed).\n")
	b.WriteString("# Regenerate: go test ./internal/bench -run GoldenReplay -update\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, golden[k])
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// replaySubset runs the golden replay over ids along the given axes and
// requires a clean report whose digests match the committed ones.
func replaySubset(t *testing.T, ids []string, opts Options, axes []axis) *ReplayReport {
	t.Helper()
	rep, err := goldenReplay(ids, opts, axes)
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
	checkGolden(t, rep.Digests, opts, "")
	return rep
}

// TestGoldenReplaySubset is the tier-1 slice of the golden replay along
// the sweep axis: a fault-schedule experiment (epoch fingerprints), a
// multi-cluster sweep, and the faulted-PDES mesh (window-boundary
// barrier arms + partition-local arms), quick mode, serial vs parallel
// sweep. `make replay-smoke` / `ipipe-bench -check` run every axis.
func TestGoldenReplaySubset(t *testing.T) {
	replaySubset(t, []string{"faults-availability", "fig17", "faults-pdes"},
		Options{Quick: true}, replayAxes(4)[:1])
}

// TestGoldenReplayAxesFollowTheClusters: whether the PDES axes apply is
// observed from the clusters a run builds — a classic experiment gets
// the baseline and the sweep run only, a partitioned one all four, and
// the same partition-aware experiment forced onto one partition (-pdes
// 1) is classic again.
func TestGoldenReplayAxesFollowTheClusters(t *testing.T) {
	runsPerSeed := func(id string, parts int) int {
		rep, err := GoldenReplay([]string{id}, Options{Quick: true, PDESParts: parts}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("%s -pdes %d: %v %v", id, parts, rep.Violations, rep.Mismatches)
		}
		return rep.Runs / 2
	}
	if got := runsPerSeed("faults-pdes", 0); got != 4 {
		t.Errorf("partitioned experiment: %d runs per seed, want baseline + 3 axes", got)
	}
	if got := runsPerSeed("faults-pdes", 1); got != 2 {
		t.Errorf("same experiment on one partition: %d runs per seed, want baseline + sweep", got)
	}
}

func TestGoldenReplayUnknownID(t *testing.T) {
	if _, err := GoldenReplay([]string{"no-such-experiment"}, Options{}, 2); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}
