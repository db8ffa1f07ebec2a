package qos

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestValidateTable walks every rule in Tenancy.Validate: each invalid
// field yields a typed *configError naming exactly that field, and no
// configuration panics.
func TestValidateTable(t *testing.T) {
	oneTenant := []Tenant{{Name: "a", RatePerSec: 1000}}
	cases := []struct {
		name  string
		t     *Tenancy
		field string // "" = expect nil error
	}{
		{"nil block", nil, ""},
		{"empty block", &Tenancy{}, ""},
		{"valid full", &Tenancy{
			Tenants:    []Tenant{{Name: "a", RatePerSec: 1e5, Burst: 32, SLOp99Us: 100}},
			Lanes:      LaneConfig{DataCap: 64, TelemetryCap: 8, DispatchCost: 100},
			Controller: ControllerConfig{Enabled: true, Period: 1000, ThreshFactor: 0.5},
		}, ""},
		{"zero rate", &Tenancy{Tenants: []Tenant{{Name: "a"}}}, "Tenants[0].RatePerSec"},
		{"negative rate", &Tenancy{Tenants: []Tenant{{RatePerSec: -1}}}, "Tenants[0].RatePerSec"},
		{"second tenant bad", &Tenancy{Tenants: []Tenant{
			{RatePerSec: 1000}, {RatePerSec: 1000, Burst: -2},
		}}, "Tenants[1].Burst"},
		{"negative slo", &Tenancy{Tenants: []Tenant{
			{RatePerSec: 1000, SLOp99Us: -5},
		}}, "Tenants[0].SLOp99Us"},
		{"negative data cap", &Tenancy{Lanes: LaneConfig{DataCap: -1}}, "Lanes.DataCap"},
		{"negative telemetry cap", &Tenancy{Lanes: LaneConfig{TelemetryCap: -1}}, "Lanes.TelemetryCap"},
		{"negative dispatch cost", &Tenancy{Lanes: LaneConfig{DispatchCost: -1}}, "Lanes.DispatchCost"},
		{"negative period", &Tenancy{Controller: ControllerConfig{Period: -1}}, "Controller.Period"},
		{"thresh factor one", &Tenancy{Controller: ControllerConfig{ThreshFactor: 1}}, "Controller.ThreshFactor"},
		{"thresh factor negative", &Tenancy{Controller: ControllerConfig{ThreshFactor: -0.5}}, "Controller.ThreshFactor"},
		{"controller without tenants", &Tenancy{Tenants: oneTenant[:0],
			Controller: ControllerConfig{Enabled: true}}, "Controller.Enabled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.t.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var ce *configError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v (%T), want *configError", err, err)
			}
			if ce.field != tc.field {
				t.Fatalf("configError.Field = %q, want %q", ce.field, tc.field)
			}
			if !strings.Contains(ce.Error(), "Tenancy."+tc.field) {
				t.Fatalf("Error() = %q does not name the field", ce.Error())
			}
		})
	}
}

// TestClassLaneVocabulary pins the class→lane mapping and the shared
// string vocabulary that obs tracks, metrics, and checker reports use.
func TestClassLaneVocabulary(t *testing.T) {
	if laneOf(ClassControl) != LaneControl || laneOf(classData) != LaneData ||
		laneOf(ClassTelemetry) != LaneTelemetry {
		t.Fatal("laneOf does not map classes onto their namesake lanes")
	}
	if laneOf(Class(42)) != LaneData {
		t.Fatal("unknown classes must ride the data lane")
	}
	for l, want := range map[Lane]string{
		LaneControl: "lane-control", LaneData: "lane-data", LaneTelemetry: "lane-telemetry",
	} {
		if l.String() != want {
			t.Fatalf("%d.String() = %q, want %q", l, l.String(), want)
		}
	}
}

// laneHarness builds a LaneSched recording delivery order.
func laneHarness(t *testing.T, cfg LaneConfig) (*sim.Engine, *laneSched, *[]uint8) {
	t.Helper()
	eng := sim.NewEngine(1)
	var order []uint8
	ls := newLaneSched(eng, cfg, "n0", func(m actor.Msg) {
		order = append(order, m.Class)
	}, nil, nil, 0, nil)
	return eng, ls, &order
}

func msg(c Class) actor.Msg { return actor.Msg{Class: uint8(c)} }

// TestLaneStrictPriority offers one message per class back-to-back: the
// first dispatches immediately, the rest drain control-before-data-
// before-telemetry regardless of arrival order.
func TestLaneStrictPriority(t *testing.T) {
	eng, ls, order := laneHarness(t, LaneConfig{DispatchCost: 100 * sim.Nanosecond})
	eng.At(0, func() {
		ls.Offer(msg(ClassTelemetry)) // dispatches immediately (idle pump)
		ls.Offer(msg(ClassTelemetry))
		ls.Offer(msg(classData))
		ls.Offer(msg(ClassControl))
	})
	eng.Run()
	want := []uint8{uint8(ClassTelemetry), uint8(ClassControl), uint8(classData), uint8(ClassTelemetry)}
	if len(*order) != len(want) {
		t.Fatalf("delivered %d messages, want %d", len(*order), len(want))
	}
	for i := range want {
		if (*order)[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", *order, want)
		}
	}
}

// TestLaneBusyWindow is the regression test for the pump's busy-window
// semantics: a delivery holds the lane busy for DispatchCost even when
// it empties the queues, so a second message arriving inside the window
// must queue (not dispatch instantly), and sub-DispatchCost bursts can
// build backlog.
func TestLaneBusyWindow(t *testing.T) {
	const cost = 1 * sim.Microsecond
	eng, ls, _ := laneHarness(t, LaneConfig{DispatchCost: cost, TelemetryCap: 1})
	var depthAt500 int
	eng.At(0, func() { ls.Offer(msg(ClassTelemetry)) }) // delivered at t=0, busy until 1µs
	eng.At(500, func() {
		ls.Offer(msg(ClassTelemetry)) // inside the busy window: must queue
		depthAt500 = ls.queues[LaneTelemetry].depth()
	})
	eng.At(600, func() { ls.Offer(msg(ClassTelemetry)) }) // cap 1 exceeded: shed
	eng.Run()
	if depthAt500 != 1 {
		t.Fatalf("telemetry depth inside the busy window = %d, want 1 (pump released the lane too early)", depthAt500)
	}
	if ls.shed[LaneTelemetry] != 1 {
		t.Fatalf("Shed[telemetry] = %d, want 1", ls.shed[LaneTelemetry])
	}
	if ls.delivered[LaneTelemetry] != 2 {
		t.Fatalf("Delivered[telemetry] = %d, want 2", ls.delivered[LaneTelemetry])
	}
}

// TestLaneTelemetryShed floods telemetry past its cap in one instant:
// overflow is shed, never delivered late, and the ledger balances.
func TestLaneTelemetryShed(t *testing.T) {
	eng, ls, _ := laneHarness(t, LaneConfig{TelemetryCap: 2, DispatchCost: sim.Microsecond})
	eng.At(0, func() {
		for i := 0; i < 6; i++ {
			ls.Offer(msg(ClassTelemetry))
		}
	})
	eng.Run()
	// First delivers immediately, two queue at the cap, three shed.
	if ls.shed[LaneTelemetry] != 3 {
		t.Fatalf("Shed = %d, want 3", ls.shed[LaneTelemetry])
	}
	if ls.enqueued[LaneTelemetry] != 3 || ls.delivered[LaneTelemetry] != 3 {
		t.Fatalf("enq/del = %d/%d, want 3/3", ls.enqueued[LaneTelemetry], ls.delivered[LaneTelemetry])
	}
}

// TestLaneDataBackpressure floods data past its cap: overflow is
// deferred by backpressureDelay and re-offered — every message is
// eventually delivered, none shed.
func TestLaneDataBackpressure(t *testing.T) {
	eng, ls, order := laneHarness(t, LaneConfig{
		DataCap: 1, DispatchCost: 100 * sim.Nanosecond})
	const n = 5
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			ls.Offer(msg(classData))
		}
	})
	eng.Run()
	if ls.backpressured == 0 {
		t.Fatal("burst past DataCap never backpressured")
	}
	if ls.shed[LaneData] != 0 {
		t.Fatalf("data lane shed %d messages; data is deferred, never dropped", ls.shed[LaneData])
	}
	if len(*order) != n {
		t.Fatalf("delivered %d of %d data messages", len(*order), n)
	}
}

// TestLaneControlUnbounded offers a control burst far past every other
// lane's cap: control is never shed, never backpressured.
func TestLaneControlUnbounded(t *testing.T) {
	eng, ls, order := laneHarness(t, LaneConfig{
		DataCap: 1, TelemetryCap: 1, DispatchCost: 50 * sim.Nanosecond})
	const n = 500
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			ls.Offer(msg(ClassControl))
		}
	})
	eng.Run()
	if ls.shed[LaneControl] != 0 || ls.backpressured != 0 {
		t.Fatalf("control burst: shed=%d backpressured=%d, want 0/0",
			ls.shed[LaneControl], ls.backpressured)
	}
	if len(*order) != n {
		t.Fatalf("delivered %d of %d control messages", len(*order), n)
	}
}

// TestBucketRefill pins the token bucket's virtual-time determinism:
// burst-limited at one instant, refilled exactly rate*dt later, capped
// at burst.
func TestBucketRefill(t *testing.T) {
	b := newBucket(1e6, 2) // 1 token per µs, burst 2
	if !b.take(0) || !b.take(0) {
		t.Fatal("full bucket refused its burst")
	}
	if b.take(0) {
		t.Fatal("empty bucket granted a token")
	}
	if !b.take(1 * sim.Microsecond) {
		t.Fatal("1µs at 1 token/µs did not refill one token")
	}
	if b.take(1 * sim.Microsecond) {
		t.Fatal("bucket granted more than the elapsed-time refill")
	}
	// A long idle period caps at burst, not rate*dt.
	if !b.take(1*sim.Second) || !b.take(1*sim.Second) || b.take(1*sim.Second) {
		t.Fatal("idle refill not capped at burst")
	}
}

// TestGateAdmission covers the admission gate: per-tenant budgets,
// control-class bypass, and the untabled-tenant passthrough that keeps
// legacy traffic unconstrained and uncounted.
func TestGateAdmission(t *testing.T) {
	g := newGate([]Tenant{{Name: "a", RatePerSec: 1e6, Burst: 2}}, nil, nil, nil)

	// Burst then reject.
	if !g.Admit(0, uint8(classData), 0) || !g.Admit(0, uint8(classData), 0) {
		t.Fatal("burst refused")
	}
	if g.Admit(0, uint8(classData), 0) {
		t.Fatal("over-burst request admitted")
	}
	// Control never takes tokens, even with the bucket empty.
	if !g.Admit(0, uint8(ClassControl), 0) {
		t.Fatal("control request rejected; admission must never starve the control plane")
	}
	if g.offered[0] != 4 || g.admitted[0] != 3 || g.rejected[0] != 1 {
		t.Fatalf("counters offered/admitted/rejected = %d/%d/%d, want 4/3/1",
			g.offered[0], g.admitted[0], g.rejected[0])
	}
	// Untabled tenant: admitted unconditionally, no counters.
	if !g.Admit(7, uint8(classData), 0) {
		t.Fatal("untabled tenant rejected")
	}
	if g.offered[0] != 4 {
		t.Fatal("untabled tenant charged a tabled tenant's counters")
	}
	// Virtual-time refill admits again.
	if !g.Admit(0, uint8(classData), 2*sim.Microsecond) {
		t.Fatal("bucket did not refill on the engine clock")
	}
}

// TestControllerEscalation drives a sustained SLO breach through the
// loop and checks the escalation ladder: batch shrink first (repeated,
// cooldown-spaced, floored at minBatchWindow), then threshold tighten,
// then exactly one reshard.
func TestControllerEscalation(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := ControllerConfig{
		Enabled:      true,
		Period:       100 * sim.Microsecond,
		Cooldown:     100 * sim.Microsecond,
		ThreshFactor: 0.5,
	}
	scfg := sched.DefaultConfig(1)
	scfg.MeanThresh = 40
	s := sched.New(eng, scfg,
		sched.Hooks{
			Run:    func(a *actor.Actor, m actor.Msg) sim.Time { return 0 },
			FwdTax: func(bytes int) sim.Time { return 0 },
		})
	ctl := newController(eng, cfg, []Tenant{{Name: "a", RatePerSec: 1e5, SLOp99Us: 100}},
		[]*sched.Scheduler{s}, nil)

	b := workload.NewBatcher(nil, 2*sim.Microsecond, 8)
	ctl.bindBatcher(b)
	var resharded []int
	ctl.bindReshard(func() int { return 3 }, func(g int) { resharded = append(resharded, g) })

	// Sustained breach: feed latencies far above the 100µs objective,
	// and keep the engine non-drained so the ticker keeps re-arming.
	for i := sim.Time(0); i < 3*sim.Millisecond; i += 20 * sim.Microsecond {
		eng.At(i, func() { ctl.observe(0, 1000) })
	}
	ctl.start()
	eng.Run()

	if ctl.Ticks == 0 {
		t.Fatal("controller never ticked")
	}
	if ctl.ewma[0] <= 100 {
		t.Fatalf("EWMA %.1f did not track the 1000µs breach", ctl.ewma[0])
	}
	// Ladder: 2 shrinks take the 2µs window to the 500ns floor, then one
	// tighten (40 → 20, then MeanThresh still > 1 so it keeps acting...)
	if ctl.BatchShrinks != 2 {
		t.Fatalf("BatchShrinks = %d, want 2 (2µs → 1µs → 500ns floor)", ctl.BatchShrinks)
	}
	if b.Window != minBatchWindow {
		t.Fatalf("batch window %v, want the %v floor", b.Window, minBatchWindow)
	}
	if ctl.ThreshTightens == 0 {
		t.Fatal("controller never tightened the migration threshold after exhausting batch shrink")
	}
	if _, mean := s.Thresholds(); mean >= 40 {
		t.Fatalf("MeanThresh %.1f not tightened below its initial 40", mean)
	}
	if ctl.Reshards != 1 || len(resharded) != 1 || resharded[0] != 3 {
		t.Fatalf("reshard fired %d times on %v, want once on shard 3", ctl.Reshards, resharded)
	}
}

// TestControllerRequiresBreach feeds latencies comfortably inside the
// objective: the loop ticks but never acts.
func TestControllerRequiresBreach(t *testing.T) {
	eng := sim.NewEngine(1)
	ctl := newController(eng, ControllerConfig{Enabled: true, Period: 100 * sim.Microsecond},
		[]Tenant{{Name: "a", RatePerSec: 1e5, SLOp99Us: 100}}, nil, nil)
	b := &workload.Batcher{Window: 2 * sim.Microsecond}
	ctl.bindBatcher(b)
	for i := sim.Time(0); i < sim.Millisecond; i += 20 * sim.Microsecond {
		eng.At(i, func() { ctl.observe(0, 50) })
	}
	ctl.start()
	eng.Run()
	if ctl.Ticks == 0 {
		t.Fatal("controller never ticked")
	}
	if ctl.BatchShrinks+ctl.ThreshTightens+ctl.Reshards != 0 {
		t.Fatalf("controller acted without a breach: shrinks=%d tightens=%d reshards=%d",
			ctl.BatchShrinks, ctl.ThreshTightens, ctl.Reshards)
	}
	if b.Window != 2*sim.Microsecond {
		t.Fatalf("batch window moved to %v without a breach", b.Window)
	}
}

// TestControllerCooldown checks action spacing: with a long cooldown,
// a sustained breach still produces at most one action per cooldown
// interval.
func TestControllerCooldown(t *testing.T) {
	eng := sim.NewEngine(1)
	ctl := newController(eng, ControllerConfig{
		Enabled: true, Period: 100 * sim.Microsecond, Cooldown: sim.Millisecond,
	}, []Tenant{{Name: "a", RatePerSec: 1e5, SLOp99Us: 100}}, nil, nil)
	// Deep window so shrink stays available the whole run.
	b := &workload.Batcher{Window: 1 * sim.Second}
	ctl.bindBatcher(b)
	const horizon = 2*sim.Millisecond + 50*sim.Microsecond
	for i := sim.Time(0); i < horizon; i += 20 * sim.Microsecond {
		eng.At(i, func() { ctl.observe(0, 1000) })
	}
	ctl.start()
	eng.Run()
	// ~2ms of breach at 1ms cooldown: first action at the first tick,
	// then at most one per cooldown → ≤ 3 total.
	if ctl.BatchShrinks < 2 || ctl.BatchShrinks > 3 {
		t.Fatalf("BatchShrinks = %d over ~2ms at 1ms cooldown, want 2-3", ctl.BatchShrinks)
	}
}

// TestObserveEWMA pins the EWMA update rule: first sample seeds, later
// samples blend by ewmaAlpha, out-of-table tenants are ignored.
func TestObserveEWMA(t *testing.T) {
	eng := sim.NewEngine(1)
	ctl := newController(eng, ControllerConfig{},
		[]Tenant{{Name: "a", RatePerSec: 1}}, nil, nil)
	ctl.observe(0, 100)
	if got := ctl.ewma[0]; got != 100 {
		t.Fatalf("first sample EWMA = %g, want 100 (seed)", got)
	}
	ctl.observe(0, 200)
	if got := ctl.ewma[0]; got != 130 {
		t.Fatalf("EWMA after 0.3-blend = %g, want 130", got)
	}
	ctl.observe(9, 1e9) // untabled: ignored
	if len(ctl.ewma) != 1 {
		t.Fatalf("untabled tenant grew the EWMA table to %d", len(ctl.ewma))
	}
}

// TestBucketSplitRefillDeterminism is the split-interval property behind
// the GCRA rewrite: a denied probe between two takes must not perturb
// the admit sequence at the original times. Two identical buckets run in
// lockstep over randomized rates, bursts, and arrival times (8 seeds);
// bucket B additionally absorbs denied probes at random intermediate
// instants. Because denied takes don't mutate GCRA state, B's answers at
// the shared times must match A's bit for bit — the old float
// accumulator refilled on every call and failed exactly this property.
func TestBucketSplitRefillDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRand(seed)
		rate := 1e3 + float64(rng.Intn(1_000_000)) // 1e3..~1e6 req/s
		burst := 1 + float64(rng.Intn(32))
		a := newBucket(rate, burst)
		b := newBucket(rate, burst)

		now := sim.Time(0)
		probes := 0
		for step := 0; step < 2000; step++ {
			now += sim.Time(rng.Intn(int(2 * sim.Microsecond)))

			// Splice denied probes into B's timeline strictly before the
			// shared take. A value-copy trial tells us whether the probe
			// would be granted; granted probes are skipped (they would
			// legitimately change the sequence — not the property under
			// test).
			for p := 0; p < rng.Intn(3); p++ {
				pt := now - sim.Time(rng.Intn(int(sim.Microsecond))+1)
				if pt < 0 {
					pt = 0
				}
				if trial := b; !trial.take(pt) {
					before := b
					if b.take(pt) {
						t.Fatalf("seed %d: trial denied but real take granted at %v", seed, pt)
					}
					if b != before {
						t.Fatalf("seed %d: denied take mutated bucket state at %v: %+v -> %+v",
							seed, pt, before, b)
					}
					probes++
				}
			}

			ga, gb := a.take(now), b.take(now)
			if ga != gb {
				t.Fatalf("seed %d step %d t=%v: split timeline diverged (a=%v b=%v after %d probes)",
					seed, step, now, ga, gb, probes)
			}
		}
		if probes == 0 {
			t.Fatalf("seed %d: no denied probes exercised; property vacuous", seed)
		}
	}
}
