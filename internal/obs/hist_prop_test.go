package obs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// The histogram's quantile contract, checked property-style against the
// exact nearest-rank quantiles of stats.Sample: both use rank ceil(q·n)
// clamped to ≥ 1, and the histogram reports the upper bound of the
// bucket holding that rank's sample, so in the clamp-free range
//
//	exact ≤ Histogram.Quantile(q) ≤ exact · 2^(1/4)
//
// (4 buckets per octave = one quarter-octave of quantization error,
// never an underestimate).

// quantileBound is the histogram's worst-case overestimate factor.
var quantileBound = math.Pow(2, 0.25)

// randClampFree draws a log-uniform value in [2^-6, 2^13] — inside the
// bucket table (no bucket-0 or top-bucket clamping) with range to spare.
func randClampFree(rng *rand.Rand) float64 {
	return math.Pow(2, -6+rng.Float64()*19)
}

func TestHistogramQuantileMatchesExact(t *testing.T) {
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(1000)
		h := &Histogram{}
		s := stats.NewSample()
		for i := 0; i < n; i++ {
			v := randClampFree(rng)
			h.Observe(v)
			s.Observe(v)
		}
		for _, q := range qs {
			exact := s.Quantile(q)
			got := h.quantile(q)
			if got < exact*(1-1e-12) || got > exact*quantileBound*(1+1e-12) {
				t.Fatalf("seed %d n %d q %.2f: hist quantile %.9g outside [%.9g, %.9g]",
					seed, n, q, got, exact, exact*quantileBound)
			}
		}
		// Monotonic in q, like any quantile function.
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.quantile(q)
			if v < prev {
				t.Fatalf("seed %d: quantile not monotone: q=%.2f gives %.9g after %.9g", seed, q, v, prev)
			}
			prev = v
		}
	}
}

// TestHistogramBucketBoundaries checks the bucket indexing invariant
// directly: every clamp-free value lands in a bucket whose quarter-octave
// range [2^((b-base)/4), 2^((b+1-base)/4)) contains it (up to float
// rounding at the boundaries).
func TestHistogramBucketBoundaries(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			v := randClampFree(rng)
			b := histBucket(v)
			if b <= 0 || b >= histBuckets-1 {
				t.Fatalf("seed %d: value %.9g clamped to bucket %d — not clamp-free", seed, v, b)
			}
			lb := math.Pow(2, float64(b-histBucketBase)/4)
			ub := math.Pow(2, float64(b+1-histBucketBase)/4)
			if v < lb*(1-1e-9) || v > ub*(1+1e-9) {
				t.Fatalf("seed %d: value %.9g in bucket %d outside [%.9g, %.9g)", seed, v, b, lb, ub)
			}
		}
	}
	// The non-positive catch-all.
	if histBucket(0) != 0 || histBucket(-3) != 0 {
		t.Fatal("non-positive values must land in bucket 0")
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := &Histogram{}
	if h.quantile(0.5) != 0 || h.count() != 0 || h.mean() != 0 || h.max != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(4)
	// A single sample is every quantile: rank clamps to 1 at q=0 and
	// stays 1 at q=1; the reported value is the bucket bound capped at
	// the exact max.
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.quantile(q); got < 4 || got > 4*quantileBound {
			t.Fatalf("single-sample quantile(%.1f) = %.9g, want within [4, %.9g]", q, got, 4*quantileBound)
		}
	}
	// Merge: exact fields stay exact.
	a, b := &Histogram{}, &Histogram{}
	a.Observe(1)
	a.Observe(2)
	b.Observe(8)
	a.Merge(b)
	a.Merge(nil)
	if a.count() != 3 || a.max != 8 || math.Abs(a.mean()-11.0/3) > 1e-12 {
		t.Fatalf("merge lost exact fields: count %d max %g mean %g", a.count(), a.max, a.mean())
	}
}
