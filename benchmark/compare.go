package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
)

// Verdicts of one -compare row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound: neither side's median can be trusted to it
	verdictInfo       = "-"          // host-time layer metric: it has no bound, it explains
)

// judge applies a metric's declared direction and bound to a baseline
// and a candidate. Simulated metrics must be identical. A host-time
// metric is worse when its median moved the wrong way by more than
// bound × the baseline's median; it is unresolved — neither worse nor
// "unchanged" — when either side's interquartile spread exceeds the
// bound, because then the medians themselves are not known to it. A
// difference within the metric's absolute floor is always ok.
func judge(def metricDef, a, b dist) string {
	if def.sim {
		if a.Median == b.Median {
			return verdictOK
		}
		return verdictWorse
	}
	if def.bound == 0 {
		return verdictInfo
	}
	spread := func(d dist) float64 {
		if d.Median == 0 {
			return 0
		}
		return (d.Q3 - d.Q1) / math.Abs(d.Median)
	}
	worsening := b.Median - a.Median
	if def.better == "higher" {
		worsening = -worsening
	}
	switch {
	case def.floor > 0 && math.Abs(worsening) <= def.floor:
		// Too small a difference to matter, whatever the ratio or spread.
		return verdictOK
	case spread(a) > def.bound || spread(b) > def.bound:
		return verdictUnresolved
	case worsening > def.bound*math.Abs(a.Median):
		return verdictWorse
	}
	return verdictOK
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledger
	if err := json.Unmarshal(b, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &led, nil
}

// compareFiles prints one row per workload × metric — both medians, both
// quartile pairs, the verdict — and returns an error if any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readLedger(pathA)
	if err != nil {
		return err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return err
	}
	// Simulated metrics are only comparable between identical inputs.
	if a.Env.Seed != b.Env.Seed || !reflect.DeepEqual(a.Env.WindowsMs, b.Env.WindowsMs) {
		return fmt.Errorf("%s (seed %d) and %s (seed %d) ran different inputs: seeds and windows must match", pathA, a.Env.Seed, pathB, b.Env.Seed)
	}
	counts := map[string]int{}
	var worse []string
	row := func(scope string, def metricDef, ea, eb entry) {
		v := judge(def, ea.dist, eb.dist)
		counts[v]++
		if v == verdictWorse {
			worse = append(worse, scope+" "+def.name)
		}
		fmt.Fprintf(w, "%-13s %-28s %14.6g [%.6g, %.6g] %14.6g [%.6g, %.6g] %-7s %-4s %s\n",
			scope, def.name, ea.Median, ea.Q1, ea.Q3, eb.Median, eb.Q1, eb.Q3, def.unit, def.time(), v)
	}
	fmt.Fprintf(w, "%-13s %-28s %14s %-24s %14s %-24s %-7s %-4s %s\n", "workload", "metric", "a.median", "[q1, q3]", "b.median", "[q1, q3]", "unit", "time", "verdict")
	for _, def := range driverDefs() {
		row("layers", def, a.Layers[def.name], b.Layers[def.name])
	}
	layerDefs := workloadLayerDefs()
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		for _, def := range e2eDefs {
			row(wl.name, def, wa.EndToEnd[def.name], wb.EndToEnd[def.name])
		}
		for _, def := range layerDefs {
			row(wl.name, def, wa.PerLayer[def.name], wb.PerLayer[def.name])
		}
	}
	fmt.Fprintf(w, "%d ok, %d worse, %d unresolved, %d not judged\n", counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved], counts[verdictInfo])
	if len(worse) > 0 {
		return fmt.Errorf("%d metrics are worse in %s than in %s: %v", len(worse), pathB, pathA, worse)
	}
	return nil
}
