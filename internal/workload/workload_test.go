package workload

import (
	"math"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestZipfSkew(t *testing.T) {
	z := NewZipf(sim.NewRand(1), 1000, 0.99)
	counts := map[uint64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("value %d out of range", v)
		}
		counts[v]++
	}
	// With θ=0.99 the hottest key draws a large share and far exceeds a
	// uniform share (0.1%).
	if counts[0] < n/30 {
		t.Fatalf("hottest key got %d of %d; not skewed enough", counts[0], n)
	}
	// Monotone-ish decay: key 0 beats key 100 which beats key 900.
	if !(counts[0] > counts[100] && counts[100] > counts[900]) {
		t.Fatalf("zipf decay violated: %d %d %d", counts[0], counts[100], counts[900])
	}
}

func TestZipfTheoreticalHead(t *testing.T) {
	// P(0) should be ≈ 1/ζ(n,θ).
	const keys = 10000
	z := NewZipf(sim.NewRand(7), keys, 0.99)
	want := 1 / z.zetan
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if z.Next() == 0 {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-want) > 0.25*want {
		t.Fatalf("P(0) = %v, want ≈%v", got, want)
	}
}

// Regression for the θ→1 collapse: the Gray et al. constants alpha =
// 1/(1-θ) and eta are singular at θ=1 (±Inf / 0), which made every draw
// land on one of ~3 keys and silently destroyed skew experiments. Both
// high-θ settings must keep real dispersion and a plausible head share.
func TestZipfHighSkewDispersion(t *testing.T) {
	const keys = 1_000_000
	const draws = 20000
	for _, theta := range []float64{0.99, 1.0} {
		z := NewZipf(sim.NewRand(13), keys, theta)
		counts := map[uint64]int{}
		top := 0
		for i := 0; i < draws; i++ {
			v := z.Next()
			if v >= keys {
				t.Fatalf("θ=%v: draw %d out of range", theta, v)
			}
			counts[v]++
			if counts[v] > top {
				top = counts[v]
			}
		}
		// The broken generator produced ≤ 3 distinct values; a working one
		// spreads thousands of distinct keys over 20k draws even at θ=1.
		if len(counts) < draws/20 {
			t.Fatalf("θ=%v: only %d distinct keys in %d draws (collapsed)", theta, len(counts), draws)
		}
		// Still Zipfian: the hottest key holds a few percent — far above a
		// uniform share but nowhere near a collapse.
		if share := float64(top) / draws; share < 0.01 || share > 0.30 {
			t.Fatalf("θ=%v: hottest key share %.3f outside (0.01, 0.30)", theta, share)
		}
	}
}

// θ=1 draws must follow the harmonic distribution: P(0) ≈ 1/H_n.
func TestZipfHarmonicHead(t *testing.T) {
	const keys = 10000
	z := NewZipf(sim.NewRand(17), keys, 1.0)
	want := 1 / z.zetan
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if z.Next() == 0 {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-want) > 0.25*want {
		t.Fatalf("θ=1: P(0) = %v, want ≈%v", got, want)
	}
}

// TestZipfDrawsUnchangedByHoistedHead: Next compares against 1 + 0.5^θ
// computed once in NewZipf; 10⁵ draws per skew must equal, key for key,
// the formula that computed it on every draw.
func TestZipfDrawsUnchangedByHoistedHead(t *testing.T) {
	for _, theta := range []float64{0.5, 0.85, 0.99, 1} {
		z := NewZipf(sim.NewRand(23), 1000, theta)
		ref := *z
		ref.rnd = sim.NewRand(23)
		for i := 0; i < 100000; i++ {
			if got, want := z.Next(), perDrawPowNext(&ref); got != want {
				t.Fatalf("θ=%v draw %d: %d, want %d", theta, i, got, want)
			}
		}
	}
}

// perDrawPowNext is Zipf.Next with 1 + 0.5^θ recomputed on every draw.
func perDrawPowNext(z *Zipf) uint64 {
	u := z.rnd.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	var v uint64
	if z.theta == 1 {
		v = uint64(math.Exp(uz - eulerGamma))
	} else {
		v = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

func TestZipfRejectsDegenerateParams(t *testing.T) {
	cases := []struct {
		n     uint64
		theta float64
	}{
		{1, 0.99},  // n<2: eta divides by Pow(2/1,...) nonsense
		{0, 0.99},  // no keys at all
		{100, 1.5}, // θ>1: alpha negative, draws nonsensical
		{100, -1},  // negative skew undefined for this algorithm
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(n=%d, θ=%v) did not panic", c.n, c.theta)
				}
			}()
			NewZipf(sim.NewRand(1), c.n, c.theta)
		}()
	}
}

// TestZipfMemoMatchesLoop: for every (n, θ) the registry and the
// benchmark draw from, the memoised ζ(n, θ) and ζ(2, θ) a generator holds
// are bit for bit the loop's, on its first and on a later build.
func TestZipfMemoMatchesLoop(t *testing.T) {
	for _, p := range []struct {
		n     uint64
		theta float64
	}{
		{8, 0.9}, {8, 0.99}, {16, 0.99}, {64, 0.99}, {128, 0.99}, {256, 0.99},
		{512, 0.99}, {1000, 0.99}, {16384, 0.85}, {100_000, 0.99},
		{1_000_000, 0.5}, {1_000_000, 0.99}, {1_000_000, 1}, {1000, 1},
	} {
		zetan, zeta2 := zeta(p.n, p.theta), zeta(2, p.theta)
		for build := 0; build < 2; build++ {
			z := NewZipf(sim.NewRand(1), p.n, p.theta)
			if math.Float64bits(z.zetan) != math.Float64bits(zetan) {
				t.Errorf("build %d of (%d, %v): zetan %v, the loop sums %v", build, p.n, p.theta, z.zetan, zetan)
			}
			if p.theta != 1 && math.Float64bits(z.zeta2) != math.Float64bits(zeta2) {
				t.Errorf("build %d of (%d, %v): zeta2 %v, the loop sums %v", build, p.n, p.theta, z.zeta2, zeta2)
			}
		}
	}
}

// forgetZeta drops k from the memo, so the next build of k sums it.
func forgetZeta(k zetaKey) {
	zetas.Lock()
	delete(zetas.m, k)
	zetas.Unlock()
}

// TestZipfMemoStoresOnce: the first build of a pair stores ζ(n, θ) in
// the memo, and a later build reads it from there instead of summing.
func TestZipfMemoStoresOnce(t *testing.T) {
	k := zetaKey{4099, 0.61}
	forgetZeta(k)

	NewZipf(sim.NewRand(1), k.n, k.theta)
	zetas.Lock()
	v, ok := zetas.m[k]
	zetas.m[k] = 42 // a value no sum yields: a later build must read it
	zetas.Unlock()
	if !ok || math.Float64bits(v) != math.Float64bits(zeta(k.n, k.theta)) {
		t.Fatalf("after one build the memo holds %v (present %v), want ζ = %v", v, ok, zeta(k.n, k.theta))
	}
	z := NewZipf(sim.NewRand(1), k.n, k.theta)
	forgetZeta(k)
	if z.zetan != 42 {
		t.Fatalf("second build summed ζ = %v instead of reading the memo", z.zetan)
	}
}

// TestZipfMemoConcurrent: generators built at once on one fresh pair
// all hold the same constants. Run under -race.
func TestZipfMemoConcurrent(t *testing.T) {
	k := zetaKey{20011, 0.73}
	forgetZeta(k)

	const builders = 8
	zs := make([]*Zipf, builders)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range zs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			zs[i] = NewZipf(sim.NewRand(uint64(i)), k.n, k.theta)
		}(i)
	}
	close(start)
	wg.Wait()
	want := [4]float64{zeta(k.n, k.theta), zeta(2, k.theta), zs[0].alpha, zs[0].eta}
	for i, z := range zs {
		got := [4]float64{z.zetan, z.zeta2, z.alpha, z.eta}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("builder %d holds zetan, zeta2, alpha, eta = %v, want %v", i, got, want)
			}
		}
	}
}

func TestExponentialDist(t *testing.T) {
	d := Exponential{R: sim.NewRand(3), M: 32 * sim.Microsecond}
	var w float64
	const n = 50000
	for i := 0; i < n; i++ {
		w += float64(d.Draw())
	}
	mean := w / n
	if math.Abs(mean-float64(d.M)) > 0.03*float64(d.M) {
		t.Fatalf("measured mean %v vs declared %v", mean, d.M)
	}
}
