package isolation

import (
	"testing"

	"repro/internal/actor"
	"repro/internal/sim"
)

func TestWatchdogPassesGoodActors(t *testing.T) {
	w := NewWatchdog(100*sim.Microsecond, nil)
	a := &actor.Actor{ID: 1}
	svc, killed := w.Check(a, 50*sim.Microsecond)
	if killed || svc != 50*sim.Microsecond {
		t.Fatalf("well-behaved actor penalized: %v %v", svc, killed)
	}
	if w.Kills != 0 {
		t.Fatal("spurious kill")
	}
}

func TestWatchdogKillsRunaway(t *testing.T) {
	var killed *actor.Actor
	w := NewWatchdog(100*sim.Microsecond, func(a *actor.Actor) { killed = a })
	a := &actor.Actor{ID: 7}
	svc, dead := w.Check(a, sim.Second) // effectively an infinite loop
	if !dead {
		t.Fatal("runaway not killed")
	}
	if svc != 100*sim.Microsecond {
		t.Fatalf("core held for %v, want clamped to timeout", svc)
	}
	if killed != a || w.Kills != 1 {
		t.Fatalf("OnKill: got %v, kills %d", killed, w.Kills)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	w := NewWatchdog(0, nil)
	if _, dead := w.Check(&actor.Actor{}, sim.Second); dead {
		t.Fatal("disabled watchdog killed an actor")
	}
	var nilW *Watchdog
	if _, dead := nilW.Check(&actor.Actor{}, sim.Second); dead {
		t.Fatal("nil watchdog killed an actor")
	}
}

func TestWatchdogBoundaryExact(t *testing.T) {
	w := NewWatchdog(10*sim.Microsecond, nil)
	if _, dead := w.Check(&actor.Actor{}, 10*sim.Microsecond); dead {
		t.Fatal("service exactly at budget should survive")
	}
	if _, dead := w.Check(&actor.Actor{}, 10*sim.Microsecond+1); !dead {
		t.Fatal("service above budget should die")
	}
}

func TestMechanismString(t *testing.T) {
	if FirmwareTimer.String() != "firmware-timer" || OSSignals.String() != "os-signals" {
		t.Fatal("mechanism names wrong")
	}
}

func TestViolationLog(t *testing.T) {
	v := NewViolationLog()
	v.Record(1)
	v.Record(1)
	v.Record(2)
	if v.Count(1) != 2 || v.Count(2) != 1 || v.Count(3) != 0 {
		t.Fatalf("counts: %d %d %d", v.Count(1), v.Count(2), v.Count(3))
	}
	if v.Total() != 3 {
		t.Fatalf("Total = %d", v.Total())
	}
}
