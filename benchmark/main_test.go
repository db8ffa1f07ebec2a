package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sim"
)

// testSize is 1/50 of every window, two repetitions and five set-up
// samples: the whole file stays under a few seconds while every layer
// still sees traffic and every check still has something to compare.
var testSize = sizing{scale: 50, reps: 2, setups: 5}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json declares exactly the workloads and metrics the program
// defines, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the program %+v", kind, i, g, def)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s metric %q: malformed or repeated name", kind, g.Name)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != def.driverBound() || def.driverBound() <= 0 || def.driverBound() > 0.25):
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the program (must be in (0, 0.25])", kind, g.Name, g.Bound, def.driverBound())
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	var contract []metricDef
	for _, def := range e2eDefs {
		if !def.ledgerOnly {
			contract = append(contract, def)
		}
	}
	check("end_to_end", bj.EndToEnd, contract, true)
	check("per_layer", bj.PerLayer, perLayerDefs(), false)
	if len(bj.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(bj.PerLayer))
	}
}

// The full ledger at 1/50 scale: every workload passes the output checks
// (conservation, determinism across repetitions, worker-count
// independence, tracing non-perturbing, zero invariant violations — any
// failure is an error from runLedger), every declared metric is emitted
// exactly once per workload with its unit, and each workload stresses
// and bypasses the layers it was chosen for.
func TestLedgerEmitsEveryMetricAndChecksOutputs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ledger.json")
	if err := runLedger(io.Discard, 7, out, testSize); err != nil {
		t.Fatal(err)
	}
	led, err := readLedger(out)
	if err != nil {
		t.Fatal(err)
	}
	expect := func(scope string, defs []metricDef, got map[string]entry) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics emitted, %d declared", scope, len(got), len(defs))
		}
		for _, def := range defs {
			e, ok := got[def.name]
			if !ok || e.Unit != def.unit || e.N == 0 {
				t.Errorf("%s: metric %s missing or without unit/samples: %+v", scope, def.name, e)
			}
		}
	}
	expect("layers", driverDefs(), led.Layers)
	layerDefs := workloadLayerDefs()
	for _, w := range workloads {
		we := led.Workloads[w.name]
		expect(w.name, e2eDefs, we.EndToEnd)
		expect(w.name, layerDefs, we.PerLayer)
		if v := we.PerLayer["invariant.violations"].Median; v != 0 {
			t.Errorf("%s: %v invariant violations", w.name, v)
		}
	}
	layer := func(w, m string) float64 { return led.Workloads[w].PerLayer[m].Median }
	for _, m := range []string{"share.pdes", "share.msgring_pcie", "share.hostsim", "share.dmo"} {
		if v := layer("mesh_classic", m); v != 0 {
			t.Errorf("mesh_classic bypasses this layer, yet %s = %v", m, v)
		}
	}
	for _, m := range []string{"share.nicsim", "share.sched", "share.msgring_pcie", "share.pdes"} {
		if v := layer("dt_host", m); v != 0 {
			t.Errorf("dt_host bypasses this layer, yet %s = %v", m, v)
		}
	}
	// The DT coordinator appends one log record per transaction through
	// the DMO API, so dt_host's DMO share is small, not zero.
	if v := layer("dt_host", "share.dmo"); v > 0.01 {
		t.Errorf("dt_host: share.dmo = %v, expected well under 1%%", v)
	}
	if v := layer("mesh_pdes", "share.pdes"); v <= 0 {
		t.Errorf("mesh_pdes: share.pdes = %v, expected the PDES layer to show", v)
	}
	ops := layer("rkv_mixed", "sim.events") / layer("rkv_mixed", "sim.events_per_op")
	if r := layer("rkv_mixed", "hostsim.execs") / ops; r < 0.5 {
		t.Errorf("rkv_mixed: %.2f host executions per op, expected at least 0.5 (GET misses cross to the host)", r)
	}
	if layer("rkv_write", "dmo.writes") <= layer("rkv_mixed", "dmo.writes")/4 {
		t.Errorf("rkv_write does not stress DMO writes more than rkv_mixed per unit window")
	}
}

// The driver's entry point prints one JSON object last, holding exactly
// the declared metrics for the pass.
func TestContractResultLine(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for trace, want := range [][]jsonMetric{bj.EndToEnd, bj.PerLayer} {
		var buf bytes.Buffer
		if err := runContract(&buf, "rkv_write", 3, 0, trace, testSize); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res contractResult
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %d: last line is not the result object: %v", trace, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %d: result %+v", trace, res)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics in the result, %d declared", trace, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %d: metric %s: got %+v", trace, m.Name, got)
			}
		}
	}
}

// -compare: a 15% host_ns_per_op regression and a 1-count sim.events
// drift are flagged; a 5% wobble passes.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	base := ledger{
		Env:       ledgerEnv{Seed: 1, WindowsMs: map[string]float64{"mesh_classic": 25}},
		Layers:    map[string]entry{},
		Workloads: map[string]ledgerEntry{},
	}
	for _, w := range workloads {
		base.Workloads[w.name] = ledgerEntry{
			EndToEnd: map[string]entry{
				"host_ns_per_op": {dist: dist{Median: 3000, Q1: 2980, Q3: 3030, N: 5}},
				"setup_s":        {dist: dist{Median: 0.001, Q1: 0.001, Q3: 0.001, N: 31}},
			},
			PerLayer: map[string]entry{"sim.events": {dist: dist{Median: 1e6, Q1: 1e6, Q3: 1e6, N: 1}}},
		}
	}
	write := func(name string, mutate func(*ledger)) string {
		var led ledger
		b, _ := json.Marshal(base)
		if err := json.Unmarshal(b, &led); err != nil {
			t.Fatal(err)
		}
		mutate(&led)
		b, _ = json.Marshal(led)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	scale := func(w, metric string, f float64) func(*ledger) {
		return func(led *ledger) {
			e := led.Workloads[w].EndToEnd[metric]
			e.Median, e.Q1, e.Q3 = e.Median*f, e.Q1*f, e.Q3*f
			led.Workloads[w].EndToEnd[metric] = e
		}
	}
	a := write("a.json", func(*ledger) {})

	var buf bytes.Buffer
	if err := compareFiles(&buf, a, write("wobble.json", scale("rkv_mixed", "host_ns_per_op", 1.05))); err != nil {
		t.Errorf("a 5%% wobble was judged a regression: %v", err)
	}
	// A set-up that triples is still a millisecond: under the floor.
	if err := compareFiles(&buf, a, write("setup.json", scale("dt_host", "setup_s", 3))); err != nil {
		t.Errorf("a set-up change below the absolute floor was judged a regression: %v", err)
	}
	buf.Reset()
	err := compareFiles(&buf, a, write("slow.json", scale("rkv_mixed", "host_ns_per_op", 1.15)))
	if err == nil || !strings.Contains(err.Error(), "rkv_mixed host_ns_per_op") {
		t.Errorf("a 15%% host_ns_per_op regression was not flagged on its workload: %v", err)
	}
	if !regexp.MustCompile(`rkv_mixed +host_ns_per_op .* worse\n`).MatchString(buf.String()) {
		t.Errorf("no 'worse' row for rkv_mixed host_ns_per_op in:\n%s", buf.String())
	}
	err = compareFiles(&buf, a, write("drift.json", func(led *ledger) {
		e := led.Workloads["mesh_pdes"].PerLayer["sim.events"]
		e.Median++
		led.Workloads["mesh_pdes"].PerLayer["sim.events"] = e
	}))
	if err == nil || !strings.Contains(err.Error(), "mesh_pdes sim.events") {
		t.Errorf("a 1-count sim.events drift was not flagged: %v", err)
	}
	// Spread wider than the bound: the medians cannot be told apart to it.
	buf.Reset()
	if err := compareFiles(&buf, a, write("noisy.json", func(led *ledger) {
		e := led.Workloads["dt_host"].EndToEnd["host_ns_per_op"]
		e.Median, e.Q1, e.Q3 = 3400, 3000, 3800
		led.Workloads["dt_host"].EndToEnd["host_ns_per_op"] = e
	})); err != nil {
		t.Errorf("an unresolved row must not fail the comparison: %v", err)
	}
	if !regexp.MustCompile(`dt_host +host_ns_per_op .* unresolved\n`).MatchString(buf.String()) {
		t.Errorf("no 'unresolved' row for dt_host host_ns_per_op in:\n%s", buf.String())
	}
	if err := compareFiles(&buf, a, write("seed2.json", func(led *ledger) { led.Env.Seed = 2 })); err == nil {
		t.Errorf("ledgers of different seeds were compared")
	}
}

// The benchmark's mesh is internal/mesh.Run's mesh: same construction,
// same traffic, hence the same simulated results for the same seed.
func TestMeshMatchesInternalMesh(t *testing.T) {
	const window = 500 * sim.Microsecond
	w, _ := workloadByName("mesh_pdes")
	got, err := runRep(w, 7, window, pdesWorkers, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := mesh.Run(mesh.Config{Nodes: meshNodes, Partitions: 8, Workers: pdesWorkers, Seed: 7, Window: window})
	if got.ops != want.Ops || got.sent != want.Sent || got.events != want.Events || got.p50us != want.P50us || got.p99us != want.P99us {
		t.Errorf("benchmark mesh: ops=%d sent=%d events=%d p50=%v p99=%v\nmesh.Run:       ops=%d sent=%d events=%d p50=%v p99=%v",
			got.ops, got.sent, got.events, got.p50us, got.p99us, want.Ops, want.Sent, want.Events, want.P50us, want.P99us)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	d := summarize([]float64{16, 1, 8, 2, 4})
	if d.Q1 != 1.5 || d.Median != 4 || d.Q3 != 12 || d.N != 5 {
		t.Errorf("summarize = %+v, want q1 1.5, median 4, q3 12", d)
	}
}
