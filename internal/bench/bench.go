// Package bench is the experiment harness: one runner per table and
// figure of the paper's evaluation, each regenerating the same rows or
// series the paper reports (§2.2 characterization and §5 evaluation).
// Runners are registered by id ("fig2" … "fig18", "table2", "table3",
// "floem", "nf") and produce a Result that prints as an aligned table;
// cmd/ipipe-bench exposes them on the command line.
package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/sim"
)

// Options tunes a run.
type Options struct {
	// Quick trims sweeps and windows for CI-speed runs.
	Quick bool
	// Seed makes runs reproducible; 0 uses 1.
	Seed uint64
	// Parallel is the worker count for fanning independent sweep points
	// across goroutines (each point runs its own seeded sim.Engine).
	// 0 or 1 runs points serially; results are identical either way.
	Parallel int
	// PDESParts shards each partition-aware experiment's simulations
	// across this many engine partitions (conservative PDES). 0 keeps
	// every experiment's default; classic experiments, whose topologies
	// are not partitioned, ignore it.
	PDESParts int
	// PDESWorkers bounds the goroutines executing one partitioned
	// simulation's windows. 0 or 1 is the serial merge; results are
	// byte-identical at any worker count (enforced by GoldenReplay).
	PDESWorkers int
	// Observe, when set, sees every cluster the run builds right after
	// it is constructed, before any node is added — the one way to
	// attach a tracer, a collector or invariant checkers to a harness
	// run. A parallel sweep calls it from its worker goroutines.
	Observe func(*core.Cluster)
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// cluster is the one constructor experiments build their classic
// clusters through: the run's seed, then Observe.
func (o Options) cluster() *core.Cluster {
	cl := core.NewCluster(o.seed())
	if o.Observe != nil {
		o.Observe(cl)
	}
	return cl
}

// meshConfig is cluster's counterpart for the echo-mesh experiments:
// mesh.Build constructs the partitioned cluster and applies Observe at
// the same point.
func (o Options) meshConfig(nodes, parts int) mesh.Config {
	return mesh.Config{Nodes: nodes, Partitions: parts, Workers: o.PDESWorkers,
		Seed: o.seed(), Observe: o.Observe}
}

// parts is the partition count of a partitioned mesh of n nodes: -pdes
// when given, else the experiment's default, clamped to n.
func (o Options) parts(def, n int) int {
	p := o.PDESParts
	if p <= 0 {
		p = def
	}
	return min(p, n)
}

// Result is one experiment's output.
type Result struct {
	id     string
	Title  string
	header []string
	Rows   [][]string
	// notes carry the paper-vs-measured commentary.
	notes []string
	// wall is the real time Run spent producing this result; events is
	// the number of simulation events executed while doing so. Both are
	// filled by Run for bench-trajectory tracking (-json); they are not
	// part of the table output and not in the golden rendering.
	wall   time.Duration
	events uint64
}

// add appends a row of cells (fmt.Sprint applied to each).
func (r *Result) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	r.Rows = append(r.Rows, row)
}

// note appends commentary.
func (r *Result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// FprintCSV renders the result as CSV (header row first, notes as
// trailing comment lines), for piping into plotting tools.
func (r *Result) FprintCSV(w io.Writer) {
	cw := csv.NewWriter(w)
	cw.Write(r.header)
	for _, row := range r.Rows {
		cw.Write(row)
	}
	cw.Flush()
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// Fprint renders the result as an aligned text table.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.id, r.Title)
	widths := make([]int, len(r.header))
	for i, h := range r.header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(r.header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// runner produces one experiment's result.
type runner func(opts Options) *Result

type entry struct {
	id    string
	title string
	run   runner
	order int
}

var registry = map[string]*entry{}
var nextOrder int

// register wires a runner under an id; called from init functions.
func register(id, title string, run runner) {
	if _, dup := registry[id]; dup {
		panic("bench: duplicate experiment " + id)
	}
	registry[id] = &entry{id: id, title: title, run: run, order: nextOrder}
	nextOrder++
}

// IDs lists experiments in registration (paper) order.
func IDs() []string {
	es := make([]*entry, 0, len(registry))
	for _, e := range registry {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].order < es[j].order })
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.id
	}
	return out
}

// Title returns an experiment's title.
func Title(id string) string {
	if e, ok := registry[id]; ok {
		return e.title
	}
	return ""
}

// Run executes one experiment by id.
func Run(id string, opts Options) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	start := time.Now()
	ev0 := sim.TotalExecuted()
	r := e.run(opts)
	r.wall = time.Since(start)
	r.events = sim.TotalExecuted() - ev0
	r.id = e.id
	r.Title = e.title
	return r, nil
}

// jsonRecord is the machine-readable form of a Result, one line of
// NDJSON per experiment, for tracking bench trajectories across PRs.
type jsonRecord struct {
	ID           string     `json:"id"`
	Title        string     `json:"title"`
	Header       []string   `json:"header"`
	Rows         [][]string `json:"rows"`
	Notes        []string   `json:"notes,omitempty"`
	WallMS       float64    `json:"wall_ms"`
	Events       uint64     `json:"events"`
	EventsPerSec float64    `json:"events_per_sec"`
	Seed         uint64     `json:"seed"`
	Quick        bool       `json:"quick"`
	Parallel     int        `json:"parallel"`
	PDESParts    int        `json:"pdes_parts,omitempty"`
	PDESWorkers  int        `json:"pdes_workers,omitempty"`
}

// FprintJSON renders the result as a single NDJSON record. opts should
// be the Options the result was produced with; they are embedded so a
// recorded trajectory is self-describing.
func (r *Result) FprintJSON(w io.Writer, opts Options) error {
	rec := jsonRecord{
		ID:          r.id,
		Title:       r.Title,
		Header:      r.header,
		Rows:        r.Rows,
		Notes:       r.notes,
		WallMS:      float64(r.wall.Microseconds()) / 1e3,
		Events:      r.events,
		Seed:        opts.seed(),
		Quick:       opts.Quick,
		Parallel:    opts.workers(),
		PDESParts:   opts.PDESParts,
		PDESWorkers: opts.PDESWorkers,
	}
	if s := r.wall.Seconds(); s > 0 {
		rec.EventsPerSec = float64(r.events) / s
	}
	enc := json.NewEncoder(w)
	return enc.Encode(rec)
}
