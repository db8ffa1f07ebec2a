// Command benchmark is the repository's one performance benchmark: five
// whole-simulation workloads, end-to-end metrics in host time (what the
// simulator costs) and simulated time (what the modelled SmartNIC system
// does, frozen), and a per-layer ledger. See README.md.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one workload, one JSON result line (the driver's contract)
//	benchmark -seed N -out FILE                           the full ledger: measured, traced and layer-driver passes
//	benchmark -compare A.json B.json                      judge ledger B against ledger A
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/sim"
)

// minReps is the fewest repetitions a -workload run reports a median of,
// however short -seconds is.
const minReps = 3

// sizing is how much work a run does. The command always runs fullSize;
// the tests run a fraction of it through the same code.
type sizing struct {
	// scale divides every window and the drivers' operation counts.
	scale int
	// reps is the measured pass's repetition count per workload.
	reps int
	// setups is how many cluster constructions each repetition adds to
	// setup_s's sample (its own included): a set-up is milliseconds, so it
	// is cheap to repeat and noisy not to, and sampling after every
	// repetition spreads the sample over the whole run rather than over
	// whatever state the box is in at the end of it.
	setups int
}

var fullSize = sizing{scale: 1, reps: 5, setups: 25}

func main() {
	workload := flag.String("workload", "", "run one workload and print one JSON result line")
	seed := flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Float64("seconds", 10, "with -workload: how long the measured repetitions run")
	trace := flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics")
	out := flag.String("out", "", "without -workload: write the full ledger to this file")
	compare := flag.Bool("compare", false, "compare two ledger files: -compare a.json b.json")
	flag.Parse()

	// Single process, at most two OS threads running Go code: PDES workers
	// are fixed at two, and the reference box has two cores.
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(2)
	}

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: benchmark -compare a.json b.json")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workload != "":
		err = runContract(os.Stdout, *workload, *seed, *seconds, *trace, fullSize)
	default:
		err = runLedger(os.Stdout, *seed, *out, fullSize)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// measured is one workload's measured pass: its repetitions plus the
// extra set-up samples.
type measured struct {
	w      wlSpec
	window sim.Time
	reps   []rep
	setups []float64
}

// warm runs one untimed repetition over the given window: the heap grows
// and the code paths are warm before anything is timed, as they are for
// every repetition but a process's first.
func (m *measured) warm(seed uint64, window sim.Time) error {
	_, err := runRep(m.w, seed, window, pdesWorkers, nil, nil)
	return err
}

// add runs one more repetition (observability off, fresh cluster), then
// times cluster construction alone until setup_s has setups values per
// repetition.
func (m *measured) add(seed uint64, setups int) error {
	r, err := runRep(m.w, seed, m.window, pdesWorkers, nil, nil)
	if err != nil {
		return err
	}
	m.reps = append(m.reps, r)
	m.setups = append(m.setups, r.setupS)
	for len(m.setups) < len(m.reps)*setups {
		runtime.GC()
		t0 := time.Now()
		inst := m.w.build(seed, m.window, pdesWorkers, nil)
		m.setups = append(m.setups, time.Since(t0).Seconds())
		runtime.KeepAlive(inst)
	}
	return nil
}

// summary checks that every repetition simulated exactly the same thing
// and reduces the repetitions to one distribution per end-to-end metric.
func (m *measured) summary() (map[string]dist, error) {
	first := m.reps[0]
	for i, r := range m.reps[1:] {
		if a, b := first.simFields(), r.simFields(); a != b {
			return nil, fmt.Errorf("%s: repetition %d simulated something else:\n  rep 0: %s\n  rep %d: %s", m.w.name, i+1, a, i+1, b)
		}
		if a, b := first.allocsPerEvent2(), r.allocsPerEvent2(); a != b {
			return nil, fmt.Errorf("%s: allocs/event drifted between repetitions: %s then %s", m.w.name, a, b)
		}
	}
	vals := map[string][]float64{}
	for _, r := range m.reps {
		for name, v := range r.endToEnd(m.window) {
			vals[name] = append(vals[name], v)
		}
	}
	vals["setup_s"] = m.setups
	out := map[string]dist{}
	for _, def := range e2eDefs {
		out[def.name] = summarize(vals[def.name])
	}
	return out, nil
}

// perLayer runs the traced pass for one workload and joins it with the
// layer drivers' costs into the workload's per-layer metrics.
func perLayer(w wlSpec, seed uint64, window sim.Time, drv map[string]driverResult) (map[string]float64, rep, error) {
	m, plain, err := tracedRun(w, seed, window/tracedDivisor)
	if err != nil {
		return nil, plain, err
	}
	for name, v := range shares(m, drv, plain.wallS) {
		m[name] = v
	}
	return m, plain, nil
}

func runDrivers(scale int) map[string]driverResult {
	out := map[string]driverResult{}
	for _, d := range drivers {
		out[d.name] = runDriver(d, scale)
	}
	return out
}

func driverValues(drv map[string]driverResult) map[string]float64 {
	m := map[string]float64{}
	for _, d := range drivers {
		r := drv[d.name]
		m[d.name+".ns_per_op"] = r.nsPerOp
		m[d.name+".allocs_per_op"] = r.allocsPerOp
		if d.eventsPerOp {
			m[d.name+".events_per_op"] = r.eventsPerOp
		}
	}
	return m
}

// contractResult is the one JSON object the driver reads from the last
// line of standard output.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted uint64                    `json:"attempted"`
	Failed    uint64                    `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract is the driver's entry point: one workload, measured for
// about `seconds`, every metric printed by name with its unit, outputs
// checked, one JSON result line last. Any failed check is an error: the
// process exits non-zero without printing a result.
func runContract(stdout io.Writer, name string, seed uint64, seconds float64, trace int, size sizing) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	w.window /= sim.Time(size.scale)
	// A failed request or a failed check is an error below, so a result
	// that is printed at all is correct and has no failures.
	res := contractResult{Correct: true, Metrics: map[string]contractMetric{}}
	emit := func(def metricDef, d dist) {
		fmt.Fprintf(stdout, "%-28s %14.6g [%.6g, %.6g] n=%-2d %-7s %s\n", def.name, d.Median, d.Q1, d.Q3, d.N, def.unit, def.time())
		res.Metrics[def.name] = contractMetric{Value: def.contractValue(d), Unit: def.unit}
	}
	switch trace {
	case 0:
		// The warm-up is a whole repetition: after a shorter one the first
		// timed repetition still grows the heap and reads 5-10% slow.
		m := measured{w: w, window: w.window}
		if err := m.warm(seed, m.window); err != nil {
			return err
		}
		start := time.Now()
		for len(m.reps) < minReps || time.Since(start).Seconds() < seconds {
			if err := m.add(seed, size.setups); err != nil {
				return err
			}
		}
		sum, err := m.summary()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s seed=%d window=%v repetitions=%d latency_samples=%d\n", w.name, seed, w.window, len(m.reps), m.reps[0].ops)
		fmt.Fprint(stdout, "repetition wall, s:")
		for _, r := range m.reps {
			fmt.Fprintf(stdout, " %.3f", r.wallS)
		}
		fmt.Fprintln(stdout)
		for _, def := range e2eDefs {
			if !def.ledgerOnly {
				emit(def, sum[def.name])
			}
		}
		res.Attempted = m.reps[0].sent
	case 1:
		drv := runDrivers(size.scale)
		layer, plain, err := perLayer(w, seed, w.window, drv)
		if err != nil {
			return err
		}
		for name, v := range driverValues(drv) {
			layer[name] = v
		}
		fmt.Fprintf(stdout, "%s seed=%d traced_window=%v\n", w.name, seed, w.window/tracedDivisor)
		for _, def := range perLayerDefs() {
			v := layer[def.name]
			emit(def, dist{Median: v, Q1: v, Q3: v, N: 1})
		}
		warnShares(stdout, w.name, layer)
		res.Attempted = plain.sent
	default:
		return fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func warnShares(w io.Writer, name string, layer map[string]float64) {
	if attributed := 1 - layer["share.unattributed"]; attributed > 1.05 {
		fmt.Fprintf(w, "warning: %s: layer shares sum to %.2f of the wall; the drivers overstate this workload's per-call costs\n", name, attributed)
	}
}

// Ledger file format (-out, -compare).
type ledger struct {
	Env       ledgerEnv              `json:"env"`
	Layers    map[string]entry       `json:"layers"`
	Workloads map[string]ledgerEntry `json:"workloads"`
}

type ledgerEnv struct {
	GoVersion       string             `json:"go_version"`
	GOMAXPROCS      int                `json:"gomaxprocs"`
	NumCPU          int                `json:"num_cpu"`
	PDESWorkers     int                `json:"pdes_workers"`
	Seed            uint64             `json:"seed"`
	Repetitions     int                `json:"repetitions"`
	WindowsMs       map[string]float64 `json:"windows_ms"`
	TracedWindowsMs map[string]float64 `json:"traced_windows_ms"`
	PassWallS       map[string]float64 `json:"pass_wall_s"`
}

type ledgerEntry struct {
	EndToEnd map[string]entry `json:"end_to_end"`
	PerLayer map[string]entry `json:"per_layer"`
}

// entry is one metric's value: a distribution, its unit, and whether it
// is host or simulated time.
type entry struct {
	dist
	Unit string `json:"unit"`
	Time string `json:"time"`
}

func entries(defs []metricDef, vals map[string]dist) map[string]entry {
	out := map[string]entry{}
	for _, def := range defs {
		out[def.name] = entry{dist: vals[def.name], Unit: def.unit, Time: def.time()}
	}
	return out
}

func single(vals map[string]float64) map[string]dist {
	out := map[string]dist{}
	for name, v := range vals {
		out[name] = dist{Median: v, Q1: v, Q3: v, N: 1}
	}
	return out
}

// runLedger is the full command: a measured pass (observability off,
// size.reps repetitions per workload, round-robin across workloads so
// slow drift on the box lands on all of them alike), a traced pass and a
// layer-driver pass. It prints every metric and writes the ledger to
// outPath.
func runLedger(stdout io.Writer, seed uint64, outPath string, size sizing) error {
	led := ledger{
		Env: ledgerEnv{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			PDESWorkers: pdesWorkers, Seed: seed, Repetitions: size.reps,
			WindowsMs: map[string]float64{}, TracedWindowsMs: map[string]float64{}, PassWallS: map[string]float64{},
		},
		Workloads: map[string]ledgerEntry{},
	}
	pass := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		led.Env.PassWallS[name] = time.Since(t0).Seconds()
		return err
	}

	ms := make([]*measured, len(workloads))
	for i, w := range workloads {
		ms[i] = &measured{w: w, window: w.window / sim.Time(size.scale)}
		led.Env.WindowsMs[w.name] = float64(ms[i].window) / float64(sim.Millisecond)
		led.Env.TracedWindowsMs[w.name] = float64(ms[i].window/tracedDivisor) / float64(sim.Millisecond)
	}
	err := pass("measured", func() error {
		for r := -1; r < size.reps; r++ {
			for _, m := range ms {
				var err error
				if r < 0 {
					err = m.warm(seed, m.window/tracedDivisor)
				} else {
					err = m.add(seed, size.setups)
				}
				if err != nil {
					return err
				}
			}
		}
		for _, m := range ms {
			sum, err := m.summary()
			if err != nil {
				return err
			}
			led.Workloads[m.w.name] = ledgerEntry{EndToEnd: entries(e2eDefs, sum)}
		}
		return nil
	})
	if err != nil {
		return err
	}

	var drv map[string]driverResult
	_ = pass("drivers", func() error {
		drv = runDrivers(size.scale)
		led.Layers = entries(driverDefs(), single(driverValues(drv)))
		return nil
	})
	layerDefs := workloadLayerDefs()
	err = pass("traced", func() error {
		for _, m := range ms {
			layer, _, err := perLayer(m.w, seed, m.window, drv)
			if err != nil {
				return err
			}
			e := led.Workloads[m.w.name]
			e.PerLayer = entries(layerDefs, single(layer))
			led.Workloads[m.w.name] = e
			warnShares(stdout, m.w.name, layer)
		}
		return nil
	})
	if err != nil {
		return err
	}

	printLedger(stdout, &led)
	if outPath == "" {
		return nil
	}
	b, err := json.MarshalIndent(&led, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(b, '\n'), 0o644)
}

func printLedger(w io.Writer, led *ledger) {
	e := led.Env
	fmt.Fprintf(w, "%s gomaxprocs=%d num_cpu=%d pdes_workers=%d seed=%d repetitions=%d\n",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.PDESWorkers, e.Seed, e.Repetitions)
	row := func(scope string, def metricDef, en entry) {
		fmt.Fprintf(w, "%-13s %-28s %14.6g [%.6g, %.6g] n=%-2d %-7s %s\n", scope, def.name, en.Median, en.Q1, en.Q3, en.N, def.unit, def.time())
	}
	for _, def := range driverDefs() {
		row("layers", def, led.Layers[def.name])
	}
	for _, wl := range workloads {
		we := led.Workloads[wl.name]
		fmt.Fprintf(w, "%s window=%gms traced_window=%gms\n", wl.name, e.WindowsMs[wl.name], e.TracedWindowsMs[wl.name])
		for _, def := range e2eDefs {
			row(wl.name, def, we.EndToEnd[def.name])
		}
		for _, def := range workloadLayerDefs() {
			row(wl.name, def, we.PerLayer[def.name])
		}
	}
	fmt.Fprintf(w, "pass wall: measured %.1fs, drivers %.1fs, traced %.1fs\n", e.PassWallS["measured"], e.PassWallS["drivers"], e.PassWallS["traced"])
}
