// Package stats provides the streaming statistics the iPipe runtime keeps
// while scheduling: exponentially weighted moving averages of request
// latency and its standard deviation (used to approximate the tail as
// µ+3σ, §3.2.3 of the paper), exact percentile sets for offline
// experiment reporting, and windowed rate meters.
package stats

import (
	"math"
	"slices"
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

// std returns the current estimate of the standard deviation.
//
// The estimate is degenerate below two samples: with zero samples it is
// 0 by construction, and with one sample the variance recurrence has not
// yet folded in a single deviation, so Std is still exactly 0. Callers
// gating decisions on dispersion (the scheduler's tail thresholds) must
// check Ready() first or they will act on a tail estimate that collapses
// to the bare mean — or to 0 — on the first monitor tick.
func (e *EWMA) std() float64 { return math.Sqrt(e.vari) }

// Tail returns µ+3σ, the paper's running approximation of P99. Like
// Std, it is degenerate below two samples: 0 with no samples, the bare
// first sample with one. Gate on Ready() before comparing Tail against
// a threshold.
func (e *EWMA) Tail() float64 { return e.mean + 3*e.std() }

// Ready reports whether enough samples (≥ 2) have been observed for
// Std/Tail to carry any dispersion information at all.
func (e *EWMA) Ready() bool { return e.n >= 2 }

// Count returns the number of samples observed.
func (e *EWMA) Count() uint64 { return e.n }

// Sample collects individual values for exact percentile reporting. The
// experiment harness uses it for P50/P99 latency series; runs are
// bounded, so it keeps every value.
//
// Observe appends into blocks that grow geometrically up to
// sampleBlockCap values rather than re-growing one slice, which would
// allocate several times the kept bytes over a run (and leave a short
// sample holding a large array). Percentile, Mean and Merge fold the
// blocks into the flat slice in observation order, so their results and
// Mean's summation order are those of one appended slice.
type Sample struct {
	values []float64   // folded values, sorted while sorted is set
	blocks [][]float64 // values observed since the last fold, in order
	seen   uint64
	sorted bool
}

// Block sizes of Sample.Observe: the first block's and the largest.
const (
	sampleFirstBlock = 8
	sampleBlockCap   = 1024
)

// NewSample returns an unbounded sample collector.
func NewSample() *Sample { return &Sample{} }

// Observe records a value.
func (s *Sample) Observe(x float64) {
	s.seen++
	n := len(s.blocks)
	if n == 0 || len(s.blocks[n-1]) == cap(s.blocks[n-1]) {
		size := sampleFirstBlock
		if n > 0 {
			size = min(2*cap(s.blocks[n-1]), sampleBlockCap)
		}
		s.blocks = append(s.blocks, make([]float64, 0, size))
		n++
	}
	s.blocks[n-1] = append(s.blocks[n-1], x)
}

// fold moves the blocks' values onto the end of the flat slice.
func (s *Sample) fold() {
	if len(s.blocks) == 0 {
		return
	}
	n := 0
	for _, b := range s.blocks {
		n += len(b)
	}
	s.values = slices.Grow(s.values, n)
	for _, b := range s.blocks {
		s.values = append(s.values, b...)
	}
	clear(s.blocks)
	s.blocks = s.blocks[:0]
	s.sorted = false
}

// Count returns the number of values observed.
func (s *Sample) Count() uint64 { return s.seen }

// Merge folds another sample's values into s (per-partition latency
// series aggregated in a fixed order after a parallel run).
func (s *Sample) Merge(o *Sample) {
	if o == nil {
		return
	}
	s.seen += o.seen
	if len(o.values) == 0 && len(o.blocks) == 0 {
		return
	}
	s.fold()
	s.values = append(s.values, o.values...)
	for _, b := range o.blocks {
		s.values = append(s.values, b...)
	}
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
	s.fold()
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

// Mean returns the mean of retained values.
func (s *Sample) Mean() float64 {
	s.fold()
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}
