// The run-report layer: a versioned, machine-readable summary of an
// observed experiment suite — per-experiment latency histograms,
// queue-depth watermarks, scheduler-decision timelines, event, handoff
// and round counts (`ipipe-bench -report`). Every field is a pure
// function of (seed, code), so the rendered bytes are reproducible;
// internal/bench pins their sha256 per experiment beside the golden
// replay digests. Host cost (wall time, allocations) is benchmark/'s
// business, not this artifact's.
package obs

import (
	"encoding/json"
	"io"
)

// ReportVersion is the current artifact schema version.
const ReportVersion = 1

// Report is the top-level run-summary artifact.
type Report struct {
	Version     int                 `json:"version"`
	Seed        uint64              `json:"seed"`
	Quick       bool                `json:"quick"`
	Experiments []ExperimentSummary `json:"experiments"`
}

// HistSummary is a histogram's frozen five-number summary.
type HistSummary struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

// SummarizeHistogram freezes a histogram into its report form. A nil
// histogram summarizes to the zero value.
func SummarizeHistogram(h *Histogram) HistSummary {
	if h == nil {
		return HistSummary{}
	}
	return HistSummary{
		Count:  h.Count(),
		MeanUs: h.Mean(),
		P50Us:  h.Quantile(0.50),
		P99Us:  h.Quantile(0.99),
		MaxUs:  h.Max(),
	}
}

// TimelineEvent is one scheduler decision (mode switch, migration,
// autoscale move) on an experiment's timeline.
type TimelineEvent struct {
	TUs   float64 `json:"t_us"`
	Group string  `json:"group"`
	Name  string  `json:"name"`
}

// ExperimentSummary is one experiment's entry in a Report.
type ExperimentSummary struct {
	ID string `json:"id"`
	// Ops is the completed-operation total (NIC + host) across every
	// cluster the experiment built.
	Ops uint64 `json:"ops"`
	// SojournUs summarizes the merged per-node request-sojourn
	// histograms.
	SojournUs HistSummary `json:"sojourn_us"`
	// Watermarks holds the maximum sampled value per gauge name (queue
	// backlogs, core counts) across the run.
	Watermarks map[string]float64 `json:"watermarks,omitempty"`
	// Timeline holds the first scheduler decisions (bounded; see
	// TimelineTotal for the full count).
	Timeline      []TimelineEvent `json:"timeline,omitempty"`
	TimelineTotal int             `json:"timeline_total"`
	// Counters holds the end-of-run counter totals per metric name.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Handoffs/Rounds aggregate PDES cross-partition crossings and
	// synchronization windows over the experiment's partitioned
	// clusters (0 for classic experiments).
	Handoffs uint64 `json:"handoffs"`
	Rounds   uint64 `json:"rounds"`
	// Events is the number of engine events the experiment's clusters
	// executed.
	Events uint64 `json:"events"`
}

// WriteReport renders the artifact as indented JSON. encoding/json
// sorts map keys, so the bytes are deterministic for identical
// contents.
func (r *Report) WriteReport(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
