package bench

// Golden-fingerprint replay: rerun registered experiments with the
// runtime invariant checker attached to every cluster they build, then
// byte-compare the invariant fingerprints (per-epoch and final counter
// snapshots, see internal/invariant) between a serial and a parallel
// sweep of the same experiment at the same seed. Any divergence means
// the parallel sweep runner changed simulation behavior — exactly the
// class of bug a performance-focused refactor can introduce silently.

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/invariant"
)

// ReplayReport summarizes a GoldenReplay sweep.
type ReplayReport struct {
	// Experiments and Runs count experiment ids and individual checked
	// runs (each id runs at two seeds × serial/parallel = 4 runs).
	Experiments int
	Runs        int
	// Clusters counts clusters that had a checker attached; Checks the
	// individual invariant evaluations across all of them.
	Clusters int
	Checks   uint64
	// Violations holds every invariant violation observed, annotated
	// with the run that produced it.
	Violations []string
	// Mismatches lists runs whose serial and parallel fingerprints
	// differ byte-for-byte.
	Mismatches []string
	// Digests holds the sha256 of every (id, seed) baseline fingerprint,
	// in replay order — the cross-commit oracle: a refactor that claims
	// identical simulated behavior must reproduce every digest.
	Digests []Digest
}

// Digest is the sha256 of one (id, seed) replay fingerprint.
type Digest struct {
	ID   string
	Seed uint64
	Sum  string
}

func digestOf(id string, seed uint64, fingerprint string) Digest {
	return Digest{ID: id, Seed: seed, Sum: fmt.Sprintf("%x", sha256.Sum256([]byte(fingerprint)))}
}

// OK reports whether the replay saw no violations and no mismatches.
func (r *ReplayReport) OK() bool {
	return len(r.Violations) == 0 && len(r.Mismatches) == 0
}

// Fprint renders the report.
func (r *ReplayReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "golden replay: %d experiments, %d runs, %d checked clusters, %d invariant checks\n",
		r.Experiments, r.Runs, r.Clusters, r.Checks)
	for _, d := range r.Digests {
		fmt.Fprintf(w, "  digest %s seed=%d %s\n", d.ID, d.Seed, d.Sum)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
	for _, m := range r.Mismatches {
		fmt.Fprintf(w, "  MISMATCH  %s\n", m)
	}
	if r.OK() {
		fmt.Fprintln(w, "  all invariants hold; serial and parallel fingerprints match")
	}
}

// checkedRun executes one experiment with an invariant checker attached
// to every cluster it builds, returning the run's combined fingerprint
// (per-cluster fingerprints sorted, so cluster creation order — which a
// parallel sweep does not fix — cannot affect the comparison).
func checkedRun(id, tag string, opts Options) (fingerprint string, violations []string, clusters int, checks uint64, err error) {
	var mu sync.Mutex
	var byCluster [][]*invariant.Checker
	core.SetDefaultObserver(func(c *core.Cluster) {
		// One checker per engine partition: a partitioned cluster's
		// conservation ledgers live at partition granularity (handoff
		// counters reconcile the cross-partition packets); a classic
		// cluster gets the usual single checker. Grouping per cluster
		// lets the post-run cross-partition reconciliation below sum one
		// cluster's ledgers without mixing clusters from a sweep.
		cchks := c.AttachCheckers()
		mu.Lock()
		byCluster = append(byCluster, cchks)
		mu.Unlock()
	})
	_, err = Run(id, opts)
	core.SetDefaultObserver(nil)
	if err != nil {
		return "", nil, 0, 0, err
	}
	var fps []string
	for _, cchks := range byCluster {
		// Cross-partition handoff reconciliation: after a drained run,
		// one cluster's outbound and inbound handoff ledgers must agree
		// (skipped automatically when events are still pending).
		invariant.CrossCheckHandoffs(cchks)
		for _, chk := range cchks {
			chk.Finish()
			checks += chk.Checks()
			for _, v := range chk.Violations() {
				violations = append(violations, fmt.Sprintf("%s %s: %s", id, tag, v.String()))
			}
			fps = append(fps, chk.Fingerprint())
		}
		clusters += len(cchks)
	}
	return invariant.SortFingerprints(fps), violations, clusters, checks, nil
}

// GoldenReplay runs each experiment id at two seeds (opts.Seed and
// opts.Seed+1), serially and with a parallel sweep of the given worker
// count, checking invariants throughout and byte-comparing the two
// fingerprints per (id, seed). Experiments that build no clusters (the
// raw device characterizations) contribute empty — trivially equal —
// fingerprints. GoldenReplay installs the process-wide cluster observer
// hook, so it must not run concurrently with other harness users.
func GoldenReplay(ids []string, opts Options, workers int) (*ReplayReport, error) {
	if workers < 2 {
		workers = 4
	}
	rep := &ReplayReport{}
	for _, id := range ids {
		rep.Experiments++
		for _, seed := range []uint64{opts.seed(), opts.seed() + 1} {
			runOpts := opts
			runOpts.Seed = seed

			runOpts.Parallel = 1
			sfp, sviol, scl, sch, err := checkedRun(id, fmt.Sprintf("seed=%d serial", seed), runOpts)
			if err != nil {
				return nil, err
			}
			runOpts.Parallel = workers
			pfp, pviol, pcl, pch, err := checkedRun(id, fmt.Sprintf("seed=%d parallel", seed), runOpts)
			if err != nil {
				return nil, err
			}

			rep.Digests = append(rep.Digests, digestOf(id, seed, sfp))
			rep.Runs += 2
			rep.Clusters += scl + pcl
			rep.Checks += sch + pch
			rep.Violations = append(rep.Violations, sviol...)
			rep.Violations = append(rep.Violations, pviol...)
			if sfp != pfp {
				rep.Mismatches = append(rep.Mismatches,
					fmt.Sprintf("%s seed=%d: serial and parallel invariant fingerprints differ", id, seed))
			}
		}
	}
	return rep, nil
}

// GoldenReplayPDES is GoldenReplay along the PDES axis: each experiment
// runs at two seeds with the serial window merge (PDESWorkers=1) and
// again with `workers` goroutines executing partition windows, sweep
// parallelism pinned to 1 on both sides so the only variable is the
// parallel engine. The per-partition invariant fingerprints must match
// byte for byte — the determinism contract of sim.Group. Classic
// (unpartitioned) experiments run identically on both sides and act as
// a no-regression control. Like GoldenReplay, this installs the
// process-wide cluster observer hook, so it must not run concurrently
// with other harness users.
func GoldenReplayPDES(ids []string, opts Options, workers int) (*ReplayReport, error) {
	if workers < 2 {
		workers = 2
	}
	rep := &ReplayReport{}
	for _, id := range ids {
		rep.Experiments++
		for _, seed := range []uint64{opts.seed(), opts.seed() + 1} {
			runOpts := opts
			runOpts.Seed = seed
			runOpts.Parallel = 1

			runOpts.PDESWorkers = 1
			sfp, sviol, scl, sch, err := checkedRun(id, fmt.Sprintf("seed=%d pdes-serial", seed), runOpts)
			if err != nil {
				return nil, err
			}
			runOpts.PDESWorkers = workers
			pfp, pviol, pcl, pch, err := checkedRun(id, fmt.Sprintf("seed=%d pdes-parallel", seed), runOpts)
			if err != nil {
				return nil, err
			}

			rep.Digests = append(rep.Digests, digestOf(id, seed, sfp))
			rep.Runs += 2
			rep.Clusters += scl + pcl
			rep.Checks += sch + pch
			rep.Violations = append(rep.Violations, sviol...)
			rep.Violations = append(rep.Violations, pviol...)
			if sfp != pfp {
				rep.Mismatches = append(rep.Mismatches,
					fmt.Sprintf("%s seed=%d: PDES serial-merge and parallel fingerprints differ", id, seed))
			}
		}
	}
	return rep, nil
}

// GoldenReplayQoS replays the qos-* experiment family along both
// determinism axes: the serial-vs-parallel sweep axis, and the PDES
// axis at every requested worker count (defaults 2 and 4, covering the
// 1/2/4-worker contract — each PDES pass compares a 1-worker run
// against an N-worker run of the same partitioned cluster). Reports are
// merged into one.
func GoldenReplayQoS(opts Options, workerCounts []int) (*ReplayReport, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{2, 4}
	}
	ids := QoSExperimentIDs()
	combined, err := GoldenReplay(ids, opts, 4)
	if err != nil {
		return nil, err
	}
	for _, w := range workerCounts {
		rep, err := GoldenReplayPDES(ids, opts, w)
		if err != nil {
			return nil, err
		}
		combined.Runs += rep.Runs
		combined.Clusters += rep.Clusters
		combined.Checks += rep.Checks
		combined.Violations = append(combined.Violations, rep.Violations...)
		combined.Mismatches = append(combined.Mismatches, rep.Mismatches...)
	}
	return combined, nil
}
