// Package stats provides the streaming statistics the iPipe runtime keeps
// while scheduling: exponentially weighted moving averages of request
// latency and its standard deviation (used to approximate the tail as
// µ+3σ, §3.2.3 of the paper), exact percentile sets for offline
// experiment reporting, and windowed rate meters.
package stats

import (
	"math"
	"sort"
)

// EWMA tracks an exponentially weighted moving average of a value and of
// its squared deviation, giving a cheap running estimate of mean and
// standard deviation. Alpha is the weight of a new observation.
type EWMA struct {
	Alpha float64
	mean  float64
	vari  float64
	n     uint64
}

// Observe folds a new sample into the average.
func (e *EWMA) Observe(x float64) {
	e.n++
	if e.n == 1 {
		e.mean = x
		e.vari = 0
		return
	}
	d := x - e.mean
	// Standard EWMA mean/variance recurrences.
	e.mean += e.Alpha * d
	e.vari = (1 - e.Alpha) * (e.vari + e.Alpha*d*d)
}

// Mean returns the current estimate of the mean (0 before any samples).
func (e *EWMA) Mean() float64 { return e.mean }

// Std returns the current estimate of the standard deviation.
//
// The estimate is degenerate below two samples: with zero samples it is
// 0 by construction, and with one sample the variance recurrence has not
// yet folded in a single deviation, so Std is still exactly 0. Callers
// gating decisions on dispersion (the scheduler's tail thresholds) must
// check Ready() first or they will act on a tail estimate that collapses
// to the bare mean — or to 0 — on the first monitor tick.
func (e *EWMA) Std() float64 { return math.Sqrt(e.vari) }

// Tail returns µ+3σ, the paper's running approximation of P99. Like
// Std, it is degenerate below two samples: 0 with no samples, the bare
// first sample with one. Gate on Ready() before comparing Tail against
// a threshold.
func (e *EWMA) Tail() float64 { return e.mean + 3*e.Std() }

// Ready reports whether enough samples (≥ 2) have been observed for
// Std/Tail to carry any dispersion information at all.
func (e *EWMA) Ready() bool { return e.n >= 2 }

// Count returns the number of samples observed.
func (e *EWMA) Count() uint64 { return e.n }

// reset clears all state, keeping Alpha.
func (e *EWMA) reset() { e.mean, e.vari, e.n = 0, 0, 0 }

// welford computes exact running mean and variance (Welford's
// algorithm), for where exactness matters more than forgetting old
// samples.
type welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe folds in a sample.
func (w *welford) Observe(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of samples.
func (w *welford) Count() uint64 { return w.n }

// Mean returns the exact mean (0 before any samples).
func (w *welford) Mean() float64 { return w.mean }

// Var returns the population variance.
func (w *welford) Var() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest sample (0 before any samples).
func (w *welford) Min() float64 { return w.min }

// Max returns the largest sample (0 before any samples).
func (w *welford) Max() float64 { return w.max }

// Sample collects individual values for exact percentile reporting. The
// experiment harness uses it for P50/P99 latency series; runs are
// bounded, so it keeps every value.
type Sample struct {
	values []float64
	seen   uint64
	sorted bool
}

// NewSample returns an unbounded sample collector.
func NewSample() *Sample { return &Sample{} }

// Observe records a value.
func (s *Sample) Observe(x float64) {
	s.seen++
	s.sorted = false
	s.values = append(s.values, x)
}

// Count returns the number of values observed.
func (s *Sample) Count() uint64 { return s.seen }

// Merge folds another sample's values into s (per-partition latency
// series aggregated in a fixed order after a parallel run).
func (s *Sample) Merge(o *Sample) {
	if o == nil {
		return
	}
	if len(o.values) == 0 {
		s.seen += o.seen
		return
	}
	s.values = append(s.values, o.values...)
	s.seen += o.seen
	s.sorted = false
}

// Percentile returns the p-th percentile (p in [0,100]) by nearest-rank
// on the retained values; 0 when empty. An empty sample's 0 is
// indistinguishable from a true 0 measurement — reporters that can see
// empty samples should use PercentileOK instead.
func (s *Sample) Percentile(p float64) float64 {
	v, _ := s.PercentileOK(p)
	return v
}

// PercentileOK is Percentile with an explicit emptiness signal: ok is
// false (and the value 0) when no values were retained.
func (s *Sample) PercentileOK(p float64) (float64, bool) {
	if len(s.values) == 0 {
		return 0, false
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	if p <= 0 {
		return s.values[0], true
	}
	if p >= 100 {
		return s.values[len(s.values)-1], true
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.values))))
	if rank < 1 {
		rank = 1
	}
	return s.values[rank-1], true
}

// Quantile returns the q-th quantile (q in [0,1]) by the same
// nearest-rank rule as Percentile — rank ceil(q·n) clamped to ≥ 1 — so
// it is directly comparable with obs.Histogram.Quantile, which uses the
// identical rank semantics at bucket resolution. Returns 0 when empty.
func (s *Sample) Quantile(q float64) float64 {
	return s.Percentile(q * 100)
}

// Mean returns the mean of retained values.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// reset discards all values.
func (s *Sample) reset() { s.values = s.values[:0]; s.seen = 0; s.sorted = false }
