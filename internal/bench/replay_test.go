package bench

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from a serial, unchecked run")

// The golden files. quick_seed1.txt is byte-for-byte the stdout of
// `ipipe-bench -quick -seed 1 all`, and full_seed1.txt that of
// `ipipe-bench -seed 1 all`, the resolution EXPERIMENTS.md quotes; it
// takes ≈ 30 s to render, so `make replay-smoke` checks it, not a test.
// replay_golden.txt holds every `-check` digest — each experiment at
// seeds 1 and 2, the pdes2IDs at -pdes 2 as well — plus the
// observed-run report's "obs:" digests. `go test ./internal/bench
// -update` rewrites all three.
const (
	renderingPath = "testdata/quick_seed1.txt"
	fullPath      = "testdata/full_seed1.txt"
	goldenPath    = "testdata/replay_golden.txt"
)

// pdes2IDs are the experiments whose digests are also pinned at -pdes 2:
// the partitioned meshes, and fig17, which ignores the override. `make
// replay-smoke` checks the same list.
var pdes2IDs = []string{"fig17", "scale-nodes", "faults-pdes", "migrate-pdes"}

// passOpts are the options of the one pass over the quick registry. The
// golden is rendered with none of them — serial sweep, serial window
// merge, no checkers — so one equal rendering proves serial ≡ parallel
// sweep, 1 ≡ 2 window workers, checked ≡ unchecked and today ≡ the
// commit that wrote the file.
var passOpts = Options{Quick: true, Seed: 1, Parallel: 8, PDESWorkers: 2}

var passRuns sync.Map // id → func() (checked, error)

// passRun is id's run in the one pass, an invariant checker attached to
// every cluster. It is memoised, so each experiment renders once per
// test binary: the shape tests read their rows from the same run.
func passRun(id string) (checked, error) {
	f, _ := passRuns.LoadOrStore(id, sync.OnceValues(func() (checked, error) {
		return checkedRun(id, "seed=1", passOpts)
	}))
	return f.(func() (checked, error))()
}

// render is r as ipipe-bench prints it: the table, then a blank line.
func render(r *Result) string {
	var b strings.Builder
	r.Fprint(&b)
	b.WriteString("\n")
	return b.String()
}

// sections splits a rendering of the registry into its experiments'
// sections, each from its "== id: title ==" line up to the next, and
// returns their ids in file order.
func sections(data string) ([]string, map[string]string) {
	var ids []string
	byID := map[string]string{}
	for len(data) > 0 {
		end := strings.Index(data, "\n== ")
		if end < 0 {
			end = len(data)
		} else {
			end++
		}
		sec := data[:end]
		data = data[end:]
		id, _, _ := strings.Cut(strings.TrimPrefix(sec, "== "), ":")
		ids = append(ids, id)
		byID[id] = sec
	}
	return ids, byID
}

// renderingDiff names experiment id and prints the first line where its
// rendering differs from the golden one, golden versus got; "" when the
// two are equal.
func renderingDiff(id, golden, got string) string {
	if golden == got {
		return ""
	}
	want, have := strings.Split(golden, "\n"), strings.Split(got, "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of section)"
	}
	i := 0
	for line(want, i) == line(have, i) {
		i++
	}
	return fmt.Sprintf("%s: line %d of its rendering differs from %s (regenerate with -update if intended)\n  golden: %s\n  got:    %s",
		id, i+1, renderingPath, line(want, i), line(have, i))
}

func readRendering(t *testing.T) ([]string, map[string]string) {
	t.Helper()
	data, err := os.ReadFile(renderingPath)
	if err != nil {
		t.Fatal(err)
	}
	return sections(string(data))
}

// TestParallelParity is the one pass over the quick registry: every
// experiment runs once at passOpts with invariant checkers attached, and
// its rendering must equal its section of quick_seed1.txt and its
// seed-1 fingerprint its line of replay_golden.txt. With -update it
// regenerates both files serially instead.
func TestParallelParity(t *testing.T) {
	if *update {
		updateGolden(t)
		return
	}
	ids, golden := readRendering(t)
	if !slices.Equal(ids, IDs()) {
		t.Errorf("%s holds %v, the registry %v (regenerate with -update)", renderingPath, ids, IDs())
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			run, err := passRun(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range run.violations {
				t.Error(v)
			}
			if d := renderingDiff(id, golden[id], render(run.result)); d != "" {
				t.Error(d)
			}
			checkGolden(t, []string{digestLine(id, 0, passOpts.Seed, run.fingerprint)}, "")
		})
	}
}

// updateGolden renders the registry serially and unchecked into
// quick_seed1.txt and, at full resolution, into full_seed1.txt, and
// rewrites every digest the serial replay baselines produce.
func updateGolden(t *testing.T) {
	for _, g := range []struct {
		path  string
		quick bool
	}{{renderingPath, true}, {fullPath, false}} {
		var b strings.Builder
		for _, id := range IDs() {
			r, err := Run(id, Options{Quick: g.quick, Seed: 1, Parallel: 1})
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(render(r))
		}
		if err := os.WriteFile(g.path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var lines []string
	for _, set := range []struct {
		ids  []string
		opts Options
	}{{IDs(), Options{Quick: true}}, {pdes2IDs, Options{Quick: true, PDESParts: 2}}} {
		rep, err := goldenReplay(set.ids, set.opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("violations: %v", rep.violations)
		}
		lines = append(lines, rep.digests...)
	}
	checkGolden(t, lines, "")
}

// TestRenderingDiffNamesTheRow feeds the mismatch reporter the committed
// rendering with one cell changed: it must name that experiment, and no
// other, and print that row.
func TestRenderingDiffNamesTheRow(t *testing.T) {
	ids, golden := readRendering(t)
	rows := strings.Split(golden["fig16"], "\n")
	row := rows[3] // title, header, then the data rows
	last := row[len(row)-1]
	if last < '0' || last > '9' {
		t.Fatalf("fig16 row %q does not end in a digit", row)
	}
	rows[3] = row[:len(row)-1] + string('0'+(last-'0'+1)%10)
	changed := map[string]string{}
	for id, sec := range golden {
		changed[id] = sec
	}
	changed["fig16"] = strings.Join(rows, "\n")

	var diffs []string
	for _, id := range ids {
		if d := renderingDiff(id, golden[id], changed[id]); d != "" {
			diffs = append(diffs, d)
		}
	}
	if len(diffs) != 1 {
		t.Fatalf("%d experiments reported, want fig16 alone: %q", len(diffs), diffs)
	}
	for _, want := range []string{"fig16:", "golden: " + row, "got:    " + rows[3]} {
		if !strings.Contains(diffs[0], want) {
			t.Errorf("report lacks %q:\n%s", want, diffs[0])
		}
	}
}

// checkGolden compares digest lines — "name pdes=N seed=N sha256", the
// replay's fingerprints and the observed-run report's "obs:id" entries —
// with the committed ones: the cross-commit oracle. With -update it
// rewrites the entries given and keeps the rest. detail, if any, is
// printed under a mismatch.
func checkGolden(t *testing.T, lines []string, detail string) {
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
	for _, line := range lines {
		i := strings.LastIndexByte(line, ' ')
		key, sum := line[:i], line[i+1:]
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
	b.WriteString("# Regenerate: go test ./internal/bench -update (rewrites quick_seed1.txt too)\n")
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
	if rep.clusters == 0 || rep.checks == 0 {
		t.Fatalf("replay checked nothing: %+v", rep)
	}
	if !rep.OK() {
		var buf strings.Builder
		rep.Fprint(&buf)
		t.Fatal(buf.String())
	}
	checkGolden(t, rep.digests, "")
	return rep
}

// TestGoldenReplaySubset is the tier-1 slice of the golden replay along
// the sweep axis at both seeds (the one pass checks seed 1 only): a
// fault-schedule experiment (epoch fingerprints), a multi-cluster sweep,
// and the faulted-PDES mesh, quick mode, serial vs parallel sweep.
// `make replay-smoke` / `ipipe-bench -check` run every axis.
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
			t.Fatalf("%s -pdes %d: %v %v", id, parts, rep.violations, rep.mismatches)
		}
		return rep.runs / 2
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
