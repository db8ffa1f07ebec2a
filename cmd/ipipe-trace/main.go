// Command ipipe-trace validates observability artifacts emitted by
// ipipe-sim / ipipe-bench:
//
//	ipipe-trace check out.json           # Chrome trace_event JSON
//	ipipe-trace check-metrics out.ndjson # NDJSON metric snapshots
//
// For traces it checks the file is well-formed trace_event JSON, every
// event carries a known phase, every lane is named, and timestamps are
// monotonic per (process, lane) — the invariants chrome://tracing and
// Perfetto rely on. For merged partitioned traces it additionally
// checks every cross-partition handoff stamp (xc, xsrc, xseq) pairs an
// "out" half with exactly one "in" half at the matching arrival time.
// Exit status 0 means valid; a summary is printed either way.
package main

import (
	"fmt"
	"os"

	"repro/internal/obs"
)

func main() {
	if len(os.Args) != 3 || os.Args[1] != "check" && os.Args[1] != "check-metrics" {
		fmt.Fprintln(os.Stderr, "usage: ipipe-trace check <trace.json> | check-metrics <metrics.ndjson>")
		os.Exit(2)
	}
	if err := check(os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "ipipe-trace:", err)
		os.Exit(1)
	}
}

// check validates the artifact at path as a trace (cmd "check") or as
// metrics ("check-metrics") and prints its summary.
func check(cmd, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if cmd == "check-metrics" {
		st, err := obs.ValidateMetricsNDJSON(f)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: valid metrics: %d records across %d registries\n",
			path, st.Records, st.Registries)
		return nil
	}
	st, err := obs.ValidateChromeTrace(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: valid trace: %d events (%d spans, %d instants) across %d processes / %d tracks",
		path, st.Events, st.Spans, st.Instants, st.Processes, st.Tracks)
	if st.Handoffs > 0 || st.HandoffsInFlight > 0 {
		fmt.Printf("; %d cross-partition handoff pairs (%d in flight at window end)",
			st.Handoffs, st.HandoffsInFlight)
	}
	fmt.Println()
	return nil
}
