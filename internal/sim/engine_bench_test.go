package sim

import "testing"

// BenchmarkEngineEventsPerSec measures raw event throughput on the hot
// path every substrate shares: schedule → pop → fire. A fixed fan of
// self-rescheduling callbacks keeps the queue at a realistic depth
// (hundreds of pending events). "near" draws delays the way the
// substrates do, all inside the wheel's span; "straddle" draws them
// from twice the span, so half the events wait in the far heap and
// migrate onto the wheel.
func BenchmarkEngineEventsPerSec(b *testing.B) {
	for _, bc := range []struct {
		name    string
		horizon int
	}{
		{"near", 1000},
		{"straddle", 2 * wheelSpan},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const fan = 256 // concurrent timer chains ≈ pending-queue depth
			e := NewEngine(1)
			remaining := b.N
			var tick func()
			tick = func() {
				remaining--
				if remaining > 0 {
					e.After(Time(1+e.rng.Intn(bc.horizon)), tick)
				}
			}
			for i := 0; i < fan && i < b.N; i++ {
				e.After(Time(1+e.rng.Intn(bc.horizon)), tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkEngineScheduleFire exercises the one-shot pattern (At with an
// immediately-consumed deadline) that pktgen-style drivers use when they
// pre-schedule a whole arrival schedule.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		for i := 0; i < batch; i++ {
			e.At(e.Now()+Time(i), fn)
		}
		e.Run()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
