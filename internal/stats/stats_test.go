package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEWMAConstantInput(t *testing.T) {
	e := &EWMA{Alpha: 0.2}
	for i := 0; i < 100; i++ {
		e.Observe(5)
	}
	if e.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", e.Mean())
	}
	if e.Std() != 0 {
		t.Fatalf("Std = %v, want 0", e.Std())
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
	if e.Std() != 0 || e.Tail() != 0 || e.Mean() != 0 {
		t.Fatalf("zero-sample estimates not zero: std=%v tail=%v mean=%v", e.Std(), e.Tail(), e.Mean())
	}
	e.Observe(42)
	if e.Ready() {
		t.Fatal("Ready with 1 sample")
	}
	if e.Std() != 0 {
		t.Fatalf("one-sample Std = %v, want 0", e.Std())
	}
	if e.Tail() != e.Mean() || e.Tail() != 42 {
		t.Fatalf("one-sample Tail = %v, want bare mean 42", e.Tail())
	}
	e.Observe(10)
	if !e.Ready() {
		t.Fatal("not Ready with 2 samples")
	}
	if e.Std() <= 0 {
		t.Fatalf("two distinct samples but Std = %v", e.Std())
	}
	if e.Tail() <= e.Mean() {
		t.Fatalf("Tail %v not above mean %v with dispersion present", e.Tail(), e.Mean())
	}
	e.reset()
	if e.Ready() {
		t.Fatal("Ready after Reset")
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
	if hi.Std() <= lo.Std() {
		t.Fatalf("high-dispersion Std %v should exceed low-dispersion %v", hi.Std(), lo.Std())
	}
	if hi.Tail() <= hi.Mean() {
		t.Fatal("Tail should exceed Mean for dispersed input")
	}
}

func TestEWMAReset(t *testing.T) {
	e := &EWMA{Alpha: 0.5}
	e.Observe(100)
	e.reset()
	if e.Count() != 0 || e.Mean() != 0 {
		t.Fatal("Reset did not clear state")
	}
	e.Observe(7)
	if e.Mean() != 7 {
		t.Fatalf("first post-reset sample should set mean, got %v", e.Mean())
	}
}

func TestWelfordExact(t *testing.T) {
	var w welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Observe(x)
	}
	if w.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	if w.Std() != 2 {
		t.Fatalf("Std = %v, want 2", w.Std())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", w.Min(), w.Max())
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %v", w.Count())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Constrain to a sane range to avoid float blow-up.
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		var w welford
		var sum float64
		for _, x := range xs {
			w.Observe(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var sq float64
		for _, x := range xs {
			sq += (x - mean) * (x - mean)
		}
		wantVar := sq / float64(len(xs))
		return math.Abs(w.Mean()-mean) < 1e-6*(1+math.Abs(mean)) &&
			math.Abs(w.Var()-wantVar) < 1e-6*(1+wantVar)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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

func TestSampleReset(t *testing.T) {
	s := NewSample()
	s.Observe(1)
	s.reset()
	if s.Count() != 0 || s.Percentile(50) != 0 {
		t.Fatal("Reset did not clear")
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
