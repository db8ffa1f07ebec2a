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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ipipe-bench:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses and validates args before any
// experiment runs, then writes tables, replay reports and any artifact
// named "-" to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ipipe-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "trim sweeps and windows for a fast run")
	csvOut := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit one NDJSON record per experiment")
	seed := fs.Uint64("seed", 1, "simulation seed")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep-point worker count (1 = serial)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile to `file`")
	traceFile := fs.String("trace", "", "write a Chrome trace of every simulated cluster to `file` (forces -parallel 1)")
	metricsFile := fs.String("metrics", "", "write NDJSON metric snapshots to `file` (forces -parallel 1)")
	metricsInterval := fs.Duration("metrics-interval", 100*time.Microsecond, "metric snapshot interval (virtual time)")
	check := fs.Bool("check", false, "golden replay: run with invariant checking at two seeds and compare fingerprints along every determinism axis (sweep 1-vs-N, PDES 1-vs-2 and 1-vs-4 window workers)")
	pdes := fs.Int("pdes", 0, "engine partition count for partition-aware experiments (0 = their defaults)")
	reportFile := fs.String("report", "", "write the observed-run summary artifact (JSON) to `file` ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	ids := fs.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = bench.IDs()
	}
	for _, id := range ids {
		if bench.Title(id) == "" {
			return fmt.Errorf("unknown experiment %q (have %v)", id, bench.IDs())
		}
	}
	if *check && (*traceFile != "" || *metricsFile != "") {
		return errors.New("-check cannot be combined with -trace/-metrics (the replay runs each experiment several times; trace one run without -check)")
	}

	if *reportFile != "" {
		opts := bench.Options{Quick: *quick, Seed: *seed,
			PDESParts: *pdes, PDESWorkers: *parallel}
		rep, err := bench.ObsReport(opts, ids)
		if err != nil {
			return err
		}
		if err := obs.WriteArtifact(*reportFile, stdout, rep.WriteReport); err != nil {
			return err
		}
		if *reportFile != "-" {
			fmt.Fprintf(stderr, "report: %d experiments -> %s\n",
				len(rep.Experiments), *reportFile)
		}
		return nil
	}

	if len(ids) == 0 {
		tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "experiments (run with: ipipe-bench [ids...] or 'all'):")
		for _, id := range bench.IDs() {
			fmt.Fprintf(tw, "  %s\t%s\n", id, bench.Title(id))
		}
		return tw.Flush()
	}

	if *check {
		opts := bench.Options{Quick: *quick, Seed: *seed, PDESParts: *pdes}
		rep, err := bench.GoldenReplay(ids, opts, *parallel)
		if err != nil {
			return err
		}
		rep.Fprint(stdout)
		if !rep.OK() {
			return errors.New("golden replay failed")
		}
		return nil
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
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
			fmt.Fprintln(stderr, "ipipe-bench: -trace/-metrics force -parallel 1")
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
			return err
		}
		switch {
		case *jsonOut:
			if err := r.FprintJSON(stdout, opts); err != nil {
				return err
			}
		case *csvOut:
			r.FprintCSV(stdout)
			fmt.Fprintln(stdout)
		default:
			r.Fprint(stdout)
			fmt.Fprintln(stdout)
		}
	}

	if *traceFile != "" {
		if err := obs.WriteArtifact(*traceFile, stdout, ob.Tracer.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace: %d spans on %d tracks -> %s\n",
			ob.Tracer.Spans(), ob.Tracer.Tracks(), *traceFile)
	}
	if *metricsFile != "" {
		if err := obs.WriteArtifact(*metricsFile, stdout, ob.WriteMetrics); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "metrics: %d clusters -> %s\n", len(ob.Collectors), *metricsFile)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}
