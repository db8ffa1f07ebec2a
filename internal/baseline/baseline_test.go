package baseline

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
)

func TestConfigsShapes(t *testing.T) {
	nic := spec.LiquidIOII_CN2350()
	f := FCFSOnly(nic)
	if f.TailThresh != 0 || f.MeanThresh != 0 || f.AllDRR {
		t.Fatalf("FCFSOnly misconfigured: %+v", f)
	}
	d := DRROnly(nic)
	if !d.AllDRR {
		t.Fatal("DRROnly must set AllDRR")
	}
	h := core.SchedConfig(nic)
	if h.TailThresh != nic.TailThreshUs || h.MeanThresh != nic.MeanThreshUs {
		t.Fatal("the hybrid config must carry the model thresholds")
	}
	// Off-path card selects the shuffle layer.
	if core.SchedConfig(spec.Stingray_PS225()).Ingress != sched.ShuffleLayer {
		t.Fatal("Stingray hybrid should use the shuffle layer")
	}
	if h.Ingress != sched.SharedQueue {
		t.Fatal("LiquidIO has a traffic manager")
	}
}

func TestFloemConfigIsStatic(t *testing.T) {
	cfg := FloemConfig("srv", spec.LiquidIOII_CN2350())
	if !cfg.DisableMigration {
		t.Fatal("Floem elements must be stationary")
	}
	if cfg.SchedOverride == nil || cfg.SchedOverride.ExtraDispatch != floemMultiplexOverhead {
		t.Fatal("Floem multiplexing overhead missing")
	}
	if cfg.SchedOverride.TailThresh != 0 {
		t.Fatal("Floem has no adaptive downgrade")
	}
}

// TestDRROnlySchedulerServes exercises the AllDRR path end to end.
func TestDRROnlySchedulerServes(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DRROnly(spec.LiquidIOII_CN2350())
	served := 0
	s := sched.New(eng, cfg, sched.Hooks{
		Run: func(a *actor.Actor, m actor.Msg) sim.Time {
			served++
			return 2 * sim.Microsecond
		},
		FwdTax:  func(int) sim.Time { return 100 * sim.Nanosecond },
		Quantum: func(int) sim.Time { return 5 * sim.Microsecond },
	})
	a := &actor.Actor{ID: 1}
	s.AddActor(a)
	if !a.InDRR {
		t.Fatal("actor not placed in DRR under AllDRR")
	}
	for i := 0; i < 20; i++ {
		s.Arrive(actor.Msg{Dst: 1})
	}
	eng.Run()
	if served != 20 {
		t.Fatalf("DRR-only served %d of 20", served)
	}
	if a.InDRR != true {
		t.Fatal("actor left DRR despite AllDRR")
	}
}
