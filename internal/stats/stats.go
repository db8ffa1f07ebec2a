// Package stats provides the streaming statistics the iPipe runtime keeps
// while scheduling: exponentially weighted moving averages of request
// latency and its standard deviation (used to approximate the tail as
// µ+3σ, §3.2.3 of the paper), exact percentile sets for offline
// experiment reporting, and windowed rate meters.
package stats

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
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

// Sample collects values for exact percentile reporting. The experiment
// harness uses it for P50/P99 latency series. A latency is a whole
// number of virtual ns, so a run sees few distinct values: Sample keeps
// each distinct value once, ascending, with the number of times it was
// observed, plus a buffer of recent observations not yet merged in.
//
// Observe appends to the buffer. A full buffer is sorted and merged
// into the runs from the back, in place. The runs grow to the next power
// of two, and the buffer holds max(256, cap/8) values of a run capacity
// cap, so each observation costs O(1) amortized merge work and no flush
// allocates unless the runs grow. Percentile walks the cumulative
// counts, and Mean adds each value as many times as its count in
// ascending order: both are what one sorted slice of every observation
// gives, bit for bit, whatever the order of observes and merges. A
// Sample holds at most 2³²−1 observations of one value.
type Sample struct {
	vals   []float64 // distinct values, ascending
	counts []uint32  // counts[i] observations of vals[i]
	buf    []float64 // observations not yet merged, unsorted
	seen   uint64
}

// sampleBufMin is the smallest capacity of Sample's buffer.
const sampleBufMin = 256

// NewSample returns an unbounded sample collector.
func NewSample() *Sample { return &Sample{} }

// Observe records a value.
func (s *Sample) Observe(x float64) {
	s.seen++
	if len(s.buf) == cap(s.buf) {
		s.flush()
		if n := max(sampleBufMin, cap(s.vals)/8); cap(s.buf) < n {
			s.buf = make([]float64, 0, n)
		}
	}
	s.buf = append(s.buf, x)
}

// flush merges the buffer into the runs and empties it.
func (s *Sample) flush() {
	if len(s.buf) == 0 {
		return
	}
	slices.Sort(s.buf)
	s.merge(s.buf, nil)
	s.buf = s.buf[:0]
}

// merge adds the ascending values xs to the runs, each weighted by its
// count in cs, or by 1 when cs is nil (xs may then repeat a value).
// Values order as slices.Sort orders them: NaN below every number, and
// equal to another NaN.
func (s *Sample) merge(xs []float64, cs []uint32) {
	n, u := len(s.vals), len(s.vals) // u: distinct values of the union
	for i, j := 0, 0; j < len(xs); j++ {
		if j > 0 && same(xs[j], xs[j-1]) {
			continue
		}
		for i < n && cmp.Less(s.vals[i], xs[j]) {
			i++
		}
		if i == n || !same(s.vals[i], xs[j]) {
			u++
		}
	}
	if u > cap(s.vals) {
		c := 1 << bits.Len(uint(u-1))
		vals, counts := make([]float64, n, c), make([]uint32, n, c)
		copy(vals, s.vals)
		copy(counts, s.counts)
		s.vals, s.counts = vals, counts
	}
	s.vals, s.counts = s.vals[:u], s.counts[:u]
	// From the back: slot k is free once every value above it has moved.
	i, k := n-1, u-1
	for j := len(xs) - 1; j >= 0; k-- {
		x, c := xs[j], uint64(0)
		for ; j >= 0 && same(xs[j], x); j-- {
			if cs == nil {
				c++
			} else {
				c += uint64(cs[j])
			}
		}
		for ; i >= 0 && cmp.Less(x, s.vals[i]); i, k = i-1, k-1 {
			s.vals[k], s.counts[k] = s.vals[i], s.counts[i]
		}
		if i >= 0 && same(s.vals[i], x) {
			c += uint64(s.counts[i])
			i--
		}
		if c > math.MaxUint32 {
			panic("stats: more than 2^32-1 observations of one value")
		}
		s.vals[k], s.counts[k] = x, uint32(c)
	}
}

// same reports whether a and b are one value of a Sample: equal, or
// both NaN.
func same(a, b float64) bool { return a == b || a != a && b != b }

// Count returns the number of values observed.
func (s *Sample) Count() uint64 { return s.seen }

// Merge folds another sample's values into s (per-partition latency
// series aggregated in a fixed order after a parallel run).
func (s *Sample) Merge(o *Sample) {
	if o == nil {
		return
	}
	s.seen += o.seen
	o.flush()
	s.merge(o.vals, o.counts)
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
	s.flush()
	if s.seen == 0 {
		return 0, false
	}
	if p <= 0 {
		return s.vals[0], true
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1], true
	}
	rank := max(int(math.Ceil(p/100*float64(s.seen))), 1)
	i, cum := 0, int(s.counts[0])
	for cum < rank {
		i++
		cum += int(s.counts[i])
	}
	return s.vals[i], true
}

// Mean returns the mean of retained values.
func (s *Sample) Mean() float64 {
	s.flush()
	if s.seen == 0 {
		return 0
	}
	var sum float64
	for i, v := range s.vals {
		for range s.counts[i] {
			sum += v
		}
	}
	return sum / float64(s.seen)
}
