package stats

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
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

// flatSample is the reference Sample must match: every value in one
// slice, sorted in place on demand.
type flatSample struct {
	values []float64
	sorted bool
}

func (f *flatSample) sort() {
	if !f.sorted {
		slices.Sort(f.values)
		f.sorted = true
	}
}

func (f *flatSample) percentile(p float64) float64 {
	f.sort()
	rank := max(int(math.Ceil(p/100*float64(len(f.values)))), 1)
	return f.values[min(rank, len(f.values))-1]
}

// mean sums the values in ascending order, the order Sample.Mean takes.
func (f *flatSample) mean() float64 {
	f.sort()
	var sum float64
	for _, v := range f.values {
		sum += v
	}
	return sum / float64(len(f.values))
}

// TestSampleBlocksMatchFlatSlice checks that keeping distinct values
// with counts changes no result: percentiles and Mean equal the flat
// reference bit for bit, through interleaved observes, reads and merges
// of samples whose buffers still hold values. Odd rounds observe values
// rounded to whole ns, as latencies are, so values repeat; even rounds
// observe nearly all-distinct values, so the runs and the buffer grow.
func TestSampleBlocksMatchFlatSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	s, ref := NewSample(), &flatSample{}
	observe := func(s *Sample, x float64) {
		s.Observe(x)
		ref.values = append(ref.values, x)
		ref.sorted = false
	}
	for round := 0; round < 8; round++ {
		for i := rng.IntN(3000); i >= 0; i-- {
			x := rng.ExpFloat64() * 1e3
			if round%2 == 1 {
				x = math.Round(x) / 1e3
			}
			observe(s, x)
		}
		if round%2 == 1 {
			o := NewSample()
			for i := rng.IntN(2000); i >= 0; i-- {
				observe(o, math.Round(rng.NormFloat64()*100)/1e3)
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
			t.Fatalf("round %d: Mean after Percentile %v, flat slice %v", round, got, want)
		}
	}
	if s.Count() != uint64(len(ref.values)) {
		t.Fatalf("Count %d, want %d", s.Count(), len(ref.values))
	}
}

// TestSampleBlocksStaySmall pins that retained storage is O(distinct
// values), not O(observations): a million observations of 500 values
// keep at most 1024 slots between the runs and the buffer.
func TestSampleBlocksStaySmall(t *testing.T) {
	s := NewSample()
	for i := 0; i < 1_000_000; i++ {
		s.Observe(float64(i*7919%500) / 1e3)
	}
	if got := s.Percentile(100); got != 0.499 {
		t.Fatalf("P100 = %v, want 0.499", got)
	}
	if len(s.vals) != 500 || cap(s.counts) != cap(s.vals) {
		t.Fatalf("%d distinct values, runs of cap %d and %d; want 500 in equal caps", len(s.vals), cap(s.vals), cap(s.counts))
	}
	if slots := cap(s.vals) + cap(s.buf); slots > 1024 {
		t.Fatalf("a million observations of 500 values keep %d slots (runs %d, buffer %d), above 1024", slots, cap(s.vals), cap(s.buf))
	}
}

// latencies returns n latencies in µs, each a whole number of ns that
// ns draws.
func latencies(n int, ns func(*rand.Rand) float64) []float64 {
	rng := rand.New(rand.NewPCG(3, 4))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Round(ns(rng)) / 1e3
	}
	return xs
}

// TestSampleAllocBudget pins the bytes Sample allocates
// (MemStats.TotalAlloc) over two sequences shaped like the benchmark's
// latency samples. A mesh client's: about 550 k observations of 500
// values, a 5 µs floor and an exponential tail, which must allocate at
// most 64 KB — O(distinct), nothing per flush. A DT run's: about 100 k
// observations of about 32 k values, which barely compress: normal
// around 47 µs with σ 11 µs, its first 256 holding 229 distinct values
// (dt_host's hold 243). It must allocate at most 9 B per observation:
// runs of 12 B a slot grown to the next power of two come to 8.7 B, as
// on dt_host's own sequence. Growing by append's 1.25× steps, or to
// max(2·cap, need), which doubles the first flush's 229 values to 29 312
// and so ends at 58 624 slots for 31 853 values, allocate about twice
// that.
func TestSampleAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name          string
		xs            []float64
		distinct      [2]int // the range the sequence's distinct count must fall in
		bytes, perObs float64
	}{
		{name: "mesh client", xs: latencies(550_000, func(r *rand.Rand) float64 { return 5000 + min(r.ExpFloat64()*100, 499) }), distinct: [2]int{500, 500}, bytes: 64 << 10},
		{name: "dt run", xs: latencies(97_558, func(r *rand.Rand) float64 { return 34000 + max(13000+r.NormFloat64()*11000, 0) }), distinct: [2]int{30_000, 32_768}, perObs: 9},
	} {
		sorted := slices.Clone(tc.xs)
		slices.Sort(sorted)
		d := len(slices.Compact(sorted))
		if d < tc.distinct[0] || d > tc.distinct[1] {
			t.Fatalf("%s: %d distinct values, want %d..%d", tc.name, d, tc.distinct[0], tc.distinct[1])
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s := NewSample()
		for _, x := range tc.xs {
			s.Observe(x)
		}
		s.Percentile(50)
		runtime.ReadMemStats(&m1)
		got := float64(m1.TotalAlloc - m0.TotalAlloc)
		t.Logf("%s: %d observations of %d values, %.0f B allocated (%.2f B per observation)", tc.name, len(tc.xs), d, got, got/float64(len(tc.xs)))
		if tc.bytes > 0 && got > tc.bytes {
			t.Errorf("%s: %.0f B allocated, budget %.0f", tc.name, got, tc.bytes)
		}
		if tc.perObs > 0 && got/float64(len(tc.xs)) > tc.perObs {
			t.Errorf("%s: %.2f B per observation, budget %.0f", tc.name, got/float64(len(tc.xs)), tc.perObs)
		}
	}
}

// fuzzObsMax bounds the observations of one FuzzSample input.
const fuzzObsMax = 1 << 13

// fuzzValues are the values FuzzSample observes: few, so they repeat,
// mostly whole ns in µs, as latencies are, and a NaN, which sorts below
// every number.
var fuzzValues = [...]float64{0, 0.001, 0.5, 1, 1.25, 2.375, 5.001, 7.5, 13, 99.999, 250, 1e3, 4096.5, 12345.678, 1e6, math.NaN()}

// FuzzSample drives a Sample and a second one merged into it with the
// fuzzer's bytes, and checks every read against a sorted flat slice of
// the same observations, bit for bit. Each op is one byte, its low two
// bits the kind, followed by its operands:
//
//	0 v      observe fuzzValues[v%len(fuzzValues)] in s
//	1 v r    observe it r+1 times in s, enough to fill buffers and grow runs
//	2 v r    observe it r+1 times in o, the second sample
//	3 p      read s's Mean and its percentile p*100/255 (p = 255 merges o
//	         into s and starts a new o first)
//
// Observes stop at fuzzObsMax, so that the reference's sorts keep each
// input fast.
func FuzzSample(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 1, 3, 128})
	f.Add([]byte{1, 2, 200, 2, 5, 100, 3, 255, 1, 15, 255, 3, 0, 3, 254, 3, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, o := NewSample(), NewSample()
		ref, oref := &flatSample{}, []float64{}
		arg := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		for i := 0; i < len(data); i++ {
			switch op := data[i] % 4; op {
			case 0, 1, 2:
				x, r := fuzzValues[arg(i+1)%len(fuzzValues)], 1
				if i++; op != 0 {
					r += arg(i + 1)
					i++
				}
				r = min(r, fuzzObsMax-len(ref.values)-len(oref))
				for range r {
					if op == 2 {
						o.Observe(x)
						oref = append(oref, x)
					} else {
						s.Observe(x)
						ref.values = append(ref.values, x)
						ref.sorted = false
					}
				}
			case 3:
				i++
				if arg(i) == 255 {
					s.Merge(o)
					ref.values = append(ref.values, oref...)
					ref.sorted = false
					o, oref = NewSample(), oref[:0]
				}
				if s.Count() != uint64(len(ref.values)) {
					t.Fatalf("Count %d, want %d", s.Count(), len(ref.values))
				}
				if len(ref.values) == 0 {
					if v, ok := s.PercentileOK(50); ok || v != 0 || s.Mean() != 0 {
						t.Fatalf("empty sample reads (%v, %v), Mean %v", v, ok, s.Mean())
					}
					continue
				}
				p := float64(arg(i)) * 100 / 255
				if got, want := s.Percentile(p), ref.percentile(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("P%v = %v, sorted slice %v", p, got, want)
				}
				if got, want := s.Mean(), ref.mean(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Mean = %v, sorted slice %v", got, want)
				}
			}
		}
	})
}
