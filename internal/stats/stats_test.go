package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestEWMAConstantInput(t *testing.T) {
	e := &EWMA{Alpha: 0.2}
	for i := 0; i < 100; i++ {
		e.Observe(5)
	}
	if e.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", e.Mean())
	}
	if e.std() != 0 {
		t.Fatalf("Std = %v, want 0", e.std())
	}
	if e.Tail() != 5 {
		t.Fatalf("Tail = %v, want 5", e.Tail())
	}
}

// TestEWMADegenerateBeforeTwoSamples is the regression test for the
// documented Std/Tail contract: before two samples the dispersion
// estimate carries no information (Std 0, Tail collapsed to the mean),
// and Ready() is the guard callers must use before acting on it.
func TestEWMADegenerateBeforeTwoSamples(t *testing.T) {
	e := &EWMA{Alpha: 0.1}
	if e.Ready() {
		t.Fatal("Ready with 0 samples")
	}
	if e.std() != 0 || e.Tail() != 0 || e.Mean() != 0 {
		t.Fatalf("zero-sample estimates not zero: std=%v tail=%v mean=%v", e.std(), e.Tail(), e.Mean())
	}
	e.Observe(42)
	if e.Ready() {
		t.Fatal("Ready with 1 sample")
	}
	if e.std() != 0 {
		t.Fatalf("one-sample Std = %v, want 0", e.std())
	}
	if e.Tail() != e.Mean() || e.Tail() != 42 {
		t.Fatalf("one-sample Tail = %v, want bare mean 42", e.Tail())
	}
	e.Observe(10)
	if !e.Ready() {
		t.Fatal("not Ready with 2 samples")
	}
	if e.std() <= 0 {
		t.Fatalf("two distinct samples but Std = %v", e.std())
	}
	if e.Tail() <= e.Mean() {
		t.Fatalf("Tail %v not above mean %v with dispersion present", e.Tail(), e.Mean())
	}
}

func TestEWMAConverges(t *testing.T) {
	e := &EWMA{Alpha: 0.1}
	e.Observe(0)
	for i := 0; i < 500; i++ {
		e.Observe(10)
	}
	if math.Abs(e.Mean()-10) > 1e-6 {
		t.Fatalf("Mean = %v, want →10", e.Mean())
	}
}

func TestEWMATracksDispersion(t *testing.T) {
	lo, hi := &EWMA{Alpha: 0.05}, &EWMA{Alpha: 0.05}
	for i := 0; i < 2000; i++ {
		lo.Observe(10)
		if i%2 == 0 {
			hi.Observe(1)
		} else {
			hi.Observe(19)
		}
	}
	if hi.std() <= lo.std() {
		t.Fatalf("high-dispersion Std %v should exceed low-dispersion %v", hi.std(), lo.std())
	}
	if hi.Tail() <= hi.Mean() {
		t.Fatal("Tail should exceed Mean for dispersed input")
	}
}

func TestSamplePercentiles(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("P50 = %v, want 50", got)
	}
	if got := s.Percentile(99); got != 99 {
		t.Fatalf("P99 = %v, want 99", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("P100 = %v, want 100", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("P0 = %v, want 1", got)
	}
	if got := s.Mean(); got != 50.5 {
		t.Fatalf("Mean = %v, want 50.5", got)
	}
}

func TestSampleEmptyIsZero(t *testing.T) {
	s := NewSample()
	if s.Percentile(99) != 0 || s.Mean() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleObserveAfterPercentile(t *testing.T) {
	s := NewSample()
	s.Observe(5)
	_ = s.Percentile(50)
	s.Observe(1) // must re-sort internally
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("P0 after late observe = %v, want 1", got)
	}
}

func TestPercentileOKDistinguishesEmpty(t *testing.T) {
	s := NewSample()
	if v, ok := s.PercentileOK(50); ok || v != 0 {
		t.Fatalf("empty sample: got (%v, %v), want (0, false)", v, ok)
	}
	s.Observe(0) // a legitimate zero observation
	v, ok := s.PercentileOK(99)
	if !ok || v != 0 {
		t.Fatalf("single zero observation: got (%v, %v), want (0, true)", v, ok)
	}
	s.Observe(10)
	if v, ok := s.PercentileOK(100); !ok || v != 10 {
		t.Fatalf("p100 = (%v, %v), want (10, true)", v, ok)
	}
	// Percentile stays the ambiguous-zero compatibility shim.
	if got := NewSample().Percentile(50); got != 0 {
		t.Fatalf("empty Percentile = %v, want 0", got)
	}
}

func TestPercentileOKMatchesPercentile(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	for _, p := range []float64{0, 25, 50, 90, 99, 100} {
		v, ok := s.PercentileOK(p)
		if !ok {
			t.Fatalf("p%v not ok on populated sample", p)
		}
		if got := s.Percentile(p); got != v {
			t.Fatalf("p%v: Percentile %v != PercentileOK %v", p, got, v)
		}
	}
}

// flatSample is the single-slice reference Sample's blocks must match:
// values appended in observation order, sorted in place on demand.
type flatSample struct {
	values []float64
	sorted bool
}

func (f *flatSample) percentile(p float64) float64 {
	if !f.sorted {
		sort.Float64s(f.values)
		f.sorted = true
	}
	rank := max(int(math.Ceil(p/100*float64(len(f.values)))), 1)
	return f.values[min(rank, len(f.values))-1]
}

func (f *flatSample) mean() float64 {
	var sum float64
	for _, v := range f.values {
		sum += v
	}
	return sum / float64(len(f.values))
}

// TestSampleBlocksMatchFlatSlice checks that block storage changes no
// result: percentiles and Mean (whose float sum depends on the order it
// visits values) equal the flat reference bit for bit, through
// interleaved observes, reads and merges of unfolded samples.
func TestSampleBlocksMatchFlatSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	s, ref := NewSample(), &flatSample{}
	for round := 0; round < 6; round++ {
		for i := rng.IntN(3000); i >= 0; i-- {
			x := rng.ExpFloat64() * 1e3
			s.Observe(x)
			ref.values = append(ref.values, x)
			ref.sorted = false
		}
		if round%2 == 1 {
			o := NewSample()
			for i := rng.IntN(2000); i >= 0; i-- {
				x := rng.NormFloat64()
				o.Observe(x)
				ref.values = append(ref.values, x)
				ref.sorted = false
			}
			s.Merge(o)
		}
		if got, want := s.Mean(), ref.mean(); got != want {
			t.Fatalf("round %d: Mean %v, flat slice %v", round, got, want)
		}
		for _, p := range []float64{0, 1, 50, 99, 99.9, 100} {
			if got, want := s.Percentile(p), ref.percentile(p); got != want {
				t.Fatalf("round %d: P%v %v, flat slice %v", round, p, got, want)
			}
		}
		if got, want := s.Mean(), ref.mean(); got != want {
			t.Fatalf("round %d: Mean after sort %v, flat slice %v", round, got, want)
		}
	}
	if s.Count() != uint64(len(ref.values)) {
		t.Fatalf("Count %d, want %d", s.Count(), len(ref.values))
	}
}

// TestSampleBlocksStaySmall pins the block growth: a few values hold
// one small block, and no block exceeds the cap.
func TestSampleBlocksStaySmall(t *testing.T) {
	s := NewSample()
	for i := 0; i < 3; i++ {
		s.Observe(float64(i))
	}
	if len(s.blocks) != 1 || cap(s.blocks[0]) != sampleFirstBlock {
		t.Fatalf("3 values: %d blocks, first of cap %d; want 1 of %d", len(s.blocks), cap(s.blocks[0]), sampleFirstBlock)
	}
	for i := 0; i < 10000; i++ {
		s.Observe(float64(i))
	}
	for i, b := range s.blocks {
		if cap(b) > sampleBlockCap {
			t.Fatalf("block %d has cap %d, above %d", i, cap(b), sampleBlockCap)
		}
	}
}
