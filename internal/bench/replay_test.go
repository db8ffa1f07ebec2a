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

// checkGolden compares the replay's (id, seed) fingerprint digests with
// the committed ones — the cross-commit oracle: the in-run comparison
// proves serial ≡ parallel, this proves today ≡ the commit that wrote
// the file. Keys carry the partition override because it shapes the
// clusters an experiment builds. `go test ./internal/bench -run
// GoldenReplay -update` rewrites the entries the run produced, after an
// intentional behavior change.
func checkGolden(t *testing.T, rep *ReplayReport, opts Options) {
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
	for _, d := range rep.Digests {
		key := fmt.Sprintf("%s pdes=%d seed=%d", d.ID, opts.PDESParts, d.Seed)
		switch want, ok := golden[key]; {
		case *update:
			golden[key] = d.Sum
		case !ok:
			t.Errorf("%s: no golden digest (regenerate with -update)", key)
		case want != d.Sum:
			t.Errorf("%s: fingerprint digest %s, golden %s", key, d.Sum, want)
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

// TestGoldenReplaySubset is the tier-1 slice of the golden-replay
// harness: a fault-schedule experiment (epoch fingerprints), a
// multi-cluster sweep, and the faulted-PDES mesh (window-boundary
// barrier arms + partition-local arms), quick mode, serial vs parallel.
// The full registry runs under `make invariant-smoke` / `ipipe-bench
// -check`.
func TestGoldenReplaySubset(t *testing.T) {
	opts := Options{Quick: true}
	rep, err := GoldenReplay([]string{"faults-availability", "fig17", "faults-pdes"}, opts, 4)
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

func TestGoldenReplayUnknownID(t *testing.T) {
	if _, err := GoldenReplay([]string{"no-such-experiment"}, Options{}, 2); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}
