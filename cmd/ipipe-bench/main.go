// Command ipipe-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	ipipe-bench [-quick] [-seed N] [-parallel N] [-json] [experiment ...]
//
// With no arguments it lists the available experiment ids; "all" runs
// everything in paper order. Output is one aligned text table per
// experiment, with notes comparing against the numbers the paper
// reports. -json emits one NDJSON record per experiment instead,
// including wall time and simulated-event throughput. -cpuprofile and
// -memprofile write pprof profiles of the run.
//
// -check replaces the normal run with a golden-fingerprint replay: each
// experiment runs at two seeds with the runtime invariant checker
// attached to every cluster — once as the baseline (serial sweep, serial
// window merge) and once per determinism axis that applies: the
// parallel sweep (-parallel workers) and, for runs that built a
// multi-partition cluster, window execution at 2 and at 4 workers. The
// invariant fingerprints must match the baseline byte-for-byte and no
// invariant may be violated; exits nonzero otherwise. A sha256 digest of
// every (id, seed) fingerprint is printed for cross-commit comparison,
// keyed as in internal/bench/testdata/replay_golden.txt.
//
// -pdes N shards partition-aware experiments (the scale-nodes family)
// across N engine partitions, executed by -parallel window workers.
// The wall-clock cost of partitioned execution is measured by the
// mesh_pdes vs mesh_classic workloads of benchmark/.
//
// -report FILE re-runs a small experiment set (default: fig17 and
// scale-nodes; override with explicit ids) with tracing and metrics
// attached and writes the run-summary artifact: merged sojourn
// histograms, gauge watermarks, scheduler timelines, counter totals,
// event and PDES handoff/round counts. Its bytes depend only on the
// seed and the code, so two commits compare with diff.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	quick := flag.Bool("quick", false, "trim sweeps and windows for a fast run")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit one NDJSON record per experiment")
	seed := flag.Uint64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep-point worker count (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile to `file`")
	traceFile := flag.String("trace", "", "write a Chrome trace of every simulated cluster to `file` (forces -parallel 1)")
	metricsFile := flag.String("metrics", "", "write NDJSON metric snapshots to `file` (forces -parallel 1)")
	metricsInterval := flag.Duration("metrics-interval", 100*time.Microsecond, "metric snapshot interval (virtual time)")
	check := flag.Bool("check", false, "golden replay: run with invariant checking at two seeds and compare fingerprints along every determinism axis (sweep 1-vs-N, PDES 1-vs-2 and 1-vs-4 window workers)")
	pdes := flag.Int("pdes", 0, "engine partition count for partition-aware experiments (0 = their defaults)")
	reportFile := flag.String("report", "", "write the observed-run summary artifact (JSON) to `file` ('-' for stdout)")
	flag.Parse()

	if *reportFile != "" {
		opts := bench.Options{Quick: *quick, Seed: *seed,
			PDESParts: *pdes, PDESWorkers: *parallel}
		rep, err := bench.ObsReport(opts, flag.Args())
		if err != nil {
			fatal(err)
		}
		if err := writeTo(*reportFile, rep.WriteReport); err != nil {
			fatal(err)
		}
		if *reportFile != "-" {
			fmt.Fprintf(os.Stderr, "report: %d experiments -> %s\n",
				len(rep.Experiments), *reportFile)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Println("experiments (run with: ipipe-bench [ids...] or 'all'):")
		width := 0
		for _, id := range bench.IDs() {
			width = max(width, len(id))
		}
		for _, id := range bench.IDs() {
			fmt.Printf("  %-*s  %s\n", width, id, bench.Title(id))
		}
		return
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = bench.IDs()
	}

	if *check {
		if *traceFile != "" || *metricsFile != "" {
			fatal(fmt.Errorf("-check cannot be combined with -trace/-metrics (the replay runs each experiment several times; trace one run without -check)"))
		}
		opts := bench.Options{Quick: *quick, Seed: *seed, PDESParts: *pdes}
		rep, err := bench.GoldenReplay(ids, opts, *parallel)
		if err != nil {
			fatal(err)
		}
		rep.Fprint(os.Stdout)
		if !rep.OK() {
			os.Exit(1)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// Observability (bench.Observer): sweep points must run serially,
	// but PDES window workers stay — sinks are sharded per partition, so
	// window-parallel execution cannot perturb the artifacts.
	pdesW := *parallel
	var ob *bench.Observer
	if *traceFile != "" || *metricsFile != "" {
		if *parallel != 1 {
			fmt.Fprintln(os.Stderr, "ipipe-bench: -trace/-metrics force -parallel 1")
			*parallel = 1
		}
		ob = &bench.Observer{Metrics: *metricsFile != "", Interval: sim.Time(metricsInterval.Nanoseconds())}
		if *traceFile != "" {
			ob.Tracer = obs.NewTracer()
		}
	}

	opts := bench.Options{Quick: *quick, Seed: *seed, Parallel: *parallel,
		PDESParts: *pdes, PDESWorkers: pdesW}
	if ob != nil {
		opts.Observe = ob.Attach
	}
	for _, id := range ids {
		r, err := bench.Run(id, opts)
		if err != nil {
			fatal(err)
		}
		switch {
		case *jsonOut:
			if err := r.FprintJSON(os.Stdout, opts); err != nil {
				fatal(err)
			}
		case *csvOut:
			r.FprintCSV(os.Stdout)
			fmt.Println()
		default:
			r.Fprint(os.Stdout)
			fmt.Println()
		}
	}

	if *traceFile != "" {
		if err := writeTo(*traceFile, ob.Tracer.WriteChromeTrace); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans on %d tracks -> %s\n",
			ob.Tracer.Spans(), ob.Tracer.Tracks(), *traceFile)
	}
	if *metricsFile != "" {
		if err := writeTo(*metricsFile, ob.WriteMetrics); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics: %d clusters -> %s\n", len(ob.Collectors), *metricsFile)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ipipe-bench:", err)
	os.Exit(1)
}

// writeTo writes an exporter's output to a file ("-" for stdout).
func writeTo(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
