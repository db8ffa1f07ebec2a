package bench

// Golden-fingerprint replay: rerun registered experiments with the
// runtime invariant checker attached to every cluster they build, then
// byte-compare the invariant fingerprints (per-epoch and final counter
// snapshots, see internal/invariant) between a baseline run and one
// varied run per determinism axis — the parallel sweep runner, and
// sim.Group's parallel window execution — at the same seed. Any
// divergence means the varied machinery changed simulation behavior —
// exactly the class of bug a performance-focused refactor can introduce
// silently.

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/invariant"
)

// axis is one determinism axis: a variation of the run options that
// must leave every fingerprint unchanged. Every axis is compared against
// the same baseline — serial sweep, serial window merge.
type axis struct {
	name        string
	parallel    int // sweep workers of the varied run
	pdesWorkers int // window workers of the varied run; > 1 makes it a PDES axis
}

// replayAxes is the full axis list: the sweep at 1 vs sweepWorkers, and
// window execution at 1 vs 2 and 1 vs 4 workers (the 1/2/4 contract).
func replayAxes(sweepWorkers int) []axis {
	if sweepWorkers < 2 {
		sweepWorkers = 4
	}
	return []axis{
		{name: fmt.Sprintf("sweep 1-vs-%d", sweepWorkers), parallel: sweepWorkers, pdesWorkers: 1},
		{name: "pdes 1-vs-2", parallel: 1, pdesWorkers: 2},
		{name: "pdes 1-vs-4", parallel: 1, pdesWorkers: 4},
	}
}

// tally counts the checked work of one set of runs.
type tally struct {
	name     string
	runs     int
	clusters int
	checks   uint64
}

// ReplayReport summarizes a GoldenReplay.
type ReplayReport struct {
	// Experiments counts experiment ids; Runs the individual checked
	// runs (each id runs at two seeds: one baseline plus one run per
	// axis that applies to it).
	Experiments int
	Runs        int
	// Clusters counts clusters that had a checker attached; Checks the
	// individual invariant evaluations across all of them.
	Clusters int
	Checks   uint64
	// Violations holds every invariant violation observed, annotated
	// with the run that produced it.
	Violations []string
	// Mismatches lists runs whose fingerprint differs byte-for-byte
	// from their baseline's.
	Mismatches []string
	// Digests holds "id pdes=N seed=N sha256" for every (id, seed)
	// baseline fingerprint, in replay order — the lines of
	// testdata/replay_golden.txt, the cross-commit oracle: a refactor
	// that claims identical simulated behavior must reproduce every one.
	Digests []string

	// tallies splits Runs/Clusters/Checks by run set: the baseline
	// first, then one entry per axis.
	tallies []tally
}

// OK reports whether the replay saw no violations and no mismatches.
func (r *ReplayReport) OK() bool {
	return len(r.Violations) == 0 && len(r.Mismatches) == 0
}

// Fprint renders the report.
func (r *ReplayReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "golden replay: %d experiments, %d runs, %d checked clusters, %d invariant checks\n",
		r.Experiments, r.Runs, r.Clusters, r.Checks)
	for _, t := range r.tallies {
		fmt.Fprintf(w, "  %-13s %d runs, %d checked clusters, %d invariant checks\n",
			t.name, t.runs, t.clusters, t.checks)
	}
	for _, d := range r.Digests {
		fmt.Fprintf(w, "  digest %s\n", d)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(w, "  MISMATCH  %s\n", m)
	}
	if r.OK() {
		fmt.Fprintln(w, "  all invariants hold; every axis reproduces the baseline fingerprints")
	}
}

// add books one checked run under tally i.
func (r *ReplayReport) add(i int, run checked) {
	r.Runs++
	r.Clusters += run.clusters
	r.Checks += run.checks
	r.Violations = append(r.Violations, run.violations...)
	t := &r.tallies[i]
	t.runs++
	t.clusters += run.clusters
	t.checks += run.checks
}

// checked is the outcome of one checkedRun.
type checked struct {
	// fingerprint combines the per-cluster fingerprints, sorted, so
	// cluster creation order — which a parallel sweep does not fix —
	// cannot affect the comparison.
	fingerprint string
	violations  []string
	clusters    int
	checks      uint64
	// partitioned reports that the run built a multi-partition cluster:
	// observed from the clusters themselves, not declared per experiment.
	partitioned bool
	result      *Result // the same rows and notes as an unchecked run's
}

// checkedRun executes one experiment with an invariant checker attached
// to every partition of every cluster it builds.
func checkedRun(id, tag string, opts Options) (checked, error) {
	var mu sync.Mutex
	var byCluster [][]*invariant.Checker
	opts.Observe = func(c *core.Cluster) {
		// Grouping the per-partition checkers per cluster lets the
		// post-run cross-partition reconciliation below sum one cluster's
		// ledgers without mixing clusters from a sweep.
		cchks := c.AttachCheckers()
		mu.Lock()
		byCluster = append(byCluster, cchks)
		mu.Unlock()
	}
	r, err := Run(id, opts)
	if err != nil {
		return checked{}, err
	}
	out := checked{result: r}
	var fps []string
	for _, cchks := range byCluster {
		checks, vs, _ := invariant.Close(cchks)
		out.checks += checks
		for _, v := range vs {
			out.violations = append(out.violations, fmt.Sprintf("%s %s: %s", id, tag, v.String()))
		}
		for _, chk := range cchks {
			fps = append(fps, chk.Fingerprint())
		}
		out.clusters += len(cchks)
		out.partitioned = out.partitioned || len(cchks) > 1
	}
	out.fingerprint = invariant.SortFingerprints(fps)
	return out, nil
}

// GoldenReplay runs each experiment id at two seeds (opts.Seed and
// opts.Seed+1): once as the baseline — serial sweep, serial window
// merge — and once per determinism axis that applies to it, checking
// invariants throughout and byte-comparing every varied fingerprint
// with the baseline's. The axes are the parallel sweep (sweepWorkers
// goroutines, default 4) and, for runs that built a multi-partition
// cluster, parallel window execution at 2 and at 4 workers. Experiments
// that build no clusters (the raw device characterizations) contribute
// empty — trivially equal — fingerprints. The replay owns the runs'
// Options.Observe; whatever opts carries there is replaced.
func GoldenReplay(ids []string, opts Options, sweepWorkers int) (*ReplayReport, error) {
	return goldenReplay(ids, opts, replayAxes(sweepWorkers))
}

func goldenReplay(ids []string, opts Options, axes []axis) (*ReplayReport, error) {
	rep := &ReplayReport{tallies: make([]tally, 1+len(axes))}
	rep.tallies[0].name = "baseline"
	for i, a := range axes {
		rep.tallies[1+i].name = a.name
	}
	for _, id := range ids {
		rep.Experiments++
		for _, seed := range []uint64{opts.seed(), opts.seed() + 1} {
			runOpts := opts
			runOpts.Seed, runOpts.Parallel, runOpts.PDESWorkers = seed, 1, 1
			base, err := checkedRun(id, fmt.Sprintf("seed=%d baseline", seed), runOpts)
			if err != nil {
				return nil, err
			}
			rep.add(0, base)
			rep.Digests = append(rep.Digests, digestLine(id, opts.PDESParts, seed, base.fingerprint))
			for i, a := range axes {
				if a.pdesWorkers > 1 && !base.partitioned {
					continue // window workers cannot matter without windows
				}
				runOpts.Parallel, runOpts.PDESWorkers = a.parallel, a.pdesWorkers
				varied, err := checkedRun(id, fmt.Sprintf("seed=%d %s", seed, a.name), runOpts)
				if err != nil {
					return nil, err
				}
				rep.add(1+i, varied)
				if varied.fingerprint != base.fingerprint {
					rep.Mismatches = append(rep.Mismatches,
						fmt.Sprintf("%s seed=%d: %s fingerprint differs from the baseline", id, seed, a.name))
				}
			}
		}
	}
	return rep, nil
}

// digestLine keys data's sha256 by what produced it, as a digest line.
func digestLine(name string, pdes int, seed uint64, data string) string {
	return fmt.Sprintf("%s pdes=%d seed=%d %x", name, pdes, seed, sha256.Sum256([]byte(data)))
}
