package dmo

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func newActorStore(t *testing.T, limit int) *Store {
	t.Helper()
	s := NewStore()
	s.Register(1, limit)
	return s
}

func TestAllocReadWrite(t *testing.T) {
	s := newActorStore(t, 1024)
	id, err := s.Alloc(1, 100, NIC)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, id, 10, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(1, id, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Read = %q", got)
	}
	if n, _ := s.Size(1, id); n != 100 {
		t.Fatalf("Size = %d", n)
	}
	if side, _ := sideOf(s, 1, id); side != NIC {
		t.Fatalf("SideOf = %v", side)
	}
}

func TestRegionExhaustion(t *testing.T) {
	s := newActorStore(t, 100)
	if _, err := s.Alloc(1, 60, NIC); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(1, 60, NIC); !errors.Is(err, ErrRegionExhausted) {
		t.Fatalf("over-limit alloc err = %v", err)
	}
	// Freeing returns capacity.
	id, _ := s.Alloc(1, 40, NIC)
	if err := s.Free(1, id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(1, 40, NIC); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	used, limit := regionUse(s, 1)
	if used != 100 || limit != 100 {
		t.Fatalf("region use = %d/%d", used, limit)
	}
}

func TestUnregisteredActorCannotAlloc(t *testing.T) {
	s := NewStore()
	if _, err := s.Alloc(7, 10, NIC); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("err = %v, want ErrNoRegion", err)
	}
}

func TestOwnershipIsolation(t *testing.T) {
	s := NewStore()
	s.Register(1, 1000)
	s.Register(2, 1000)
	id, _ := s.Alloc(1, 50, NIC)
	// Actor 2 must not read, write, free, or resize actor 1's object.
	if _, err := s.Read(2, id, 0, 1); !errors.Is(err, ErrWrongActor) {
		t.Fatalf("cross-actor read err = %v", err)
	}
	if err := s.Write(2, id, 0, []byte{1}); !errors.Is(err, ErrWrongActor) {
		t.Fatalf("cross-actor write err = %v", err)
	}
	if err := s.Free(2, id); !errors.Is(err, ErrWrongActor) {
		t.Fatalf("cross-actor free err = %v", err)
	}
}

func TestBoundsChecks(t *testing.T) {
	s := newActorStore(t, 1000)
	id, _ := s.Alloc(1, 10, NIC)
	cases := []error{
		s.Write(1, id, 8, []byte("toolong")),
	}
	for i, err := range cases {
		if !errors.Is(err, ErrBounds) {
			t.Errorf("case %d: err = %v, want ErrBounds", i, err)
		}
	}
	if _, err := s.Read(1, id, 5, 6); !errors.Is(err, ErrBounds) {
		t.Errorf("read err = %v", err)
	}
}

func TestNoSuchObject(t *testing.T) {
	s := newActorStore(t, 100)
	if _, err := s.Read(1, 999, 0, 1); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("err = %v", err)
	}
}

func TestMigrateActorMovesAllObjects(t *testing.T) {
	s := NewStore()
	s.Register(1, 1000)
	s.Register(2, 1000)
	a, _ := s.Alloc(1, 100, NIC)
	bID, _ := s.Alloc(1, 200, NIC)
	other, _ := s.Alloc(2, 50, NIC)
	s.Write(1, a, 0, []byte("persist"))
	moved := s.MigrateActor(1, Host)
	if moved != 300 {
		t.Fatalf("moved %d bytes, want 300", moved)
	}
	for _, id := range []ObjID{a, bID} {
		if side, _ := sideOf(s, 1, id); side != Host {
			t.Fatalf("object %d not migrated", id)
		}
	}
	if side, _ := sideOf(s, 2, other); side != NIC {
		t.Fatal("other actor's object moved")
	}
	// Data survives migration.
	got, _ := s.Read(1, a, 0, 7)
	if string(got) != "persist" {
		t.Fatalf("data lost in migration: %q", got)
	}
	// Idempotent: second migration moves nothing.
	if again := s.MigrateActor(1, Host); again != 0 {
		t.Fatalf("re-migration moved %d bytes", again)
	}
}

func TestMigrateObject(t *testing.T) {
	s := newActorStore(t, 1000)
	id, _ := s.Alloc(1, 64, NIC)
	n, err := s.MigrateObject(1, id, Host)
	if err != nil || n != 64 {
		t.Fatalf("MigrateObject = %d, %v", n, err)
	}
	n, _ = s.MigrateObject(1, id, Host)
	if n != 0 {
		t.Fatal("same-side migration should be free")
	}
}

func TestActorBytes(t *testing.T) {
	s := newActorStore(t, 1000)
	s.Alloc(1, 100, NIC)
	s.Alloc(1, 200, Host)
	nic, host := s.ActorBytes(1)
	if nic != 100 || host != 200 {
		t.Fatalf("ActorBytes = %d/%d", nic, host)
	}
}

func TestDestroyActor(t *testing.T) {
	s := NewStore()
	s.Register(1, 1000)
	s.Register(2, 1000)
	s.Alloc(1, 10, NIC)
	s.Alloc(1, 10, NIC)
	keep, _ := s.Alloc(2, 10, NIC)
	s.DestroyActor(1)
	if s.Objects() != 1 {
		t.Fatalf("Objects = %d, want 1", s.Objects())
	}
	if _, err := s.Read(2, keep, 0, 1); err != nil {
		t.Fatal("survivor object damaged")
	}
	if _, err := s.Alloc(1, 10, NIC); !errors.Is(err, ErrNoRegion) {
		t.Fatal("destroyed actor's region still usable")
	}
}

func TestNegativeAllocRejected(t *testing.T) {
	s := newActorStore(t, 100)
	if _, err := s.Alloc(1, -5, NIC); err == nil {
		t.Fatal("negative alloc succeeded")
	}
}

// Property: region accounting never goes negative and used never
// exceeds limit under random alloc/free sequences.
func TestRegionAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewStore()
		s.Register(1, 4096)
		var live []ObjID
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op) % len(live)
				s.Free(1, live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				if id, err := s.Alloc(1, int(op%512), NIC); err == nil {
					live = append(live, id)
				}
			}
			used, limit := regionUse(s, 1)
			if used < 0 || used > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestReadViewBoundedAllocFree: Read is an addressed read — a view into the
// object's single copy, not a copy-out. Its capacity ends where it does,
// so appending to it reallocates instead of running into the neighbouring
// bytes; it sees a later Write (which is why a caller that keeps the
// bytes must copy them); and it allocates nothing.
func TestReadViewBoundedAllocFree(t *testing.T) {
	s := NewStore()
	s.Register(1, 1024)
	id, _ := s.Alloc(1, 64, NIC)
	if err := s.Write(1, id, 0, []byte("headerNEIGHBOUR")); err != nil {
		t.Fatal(err)
	}
	hdr, err := s.Read(1, id, 0, 6)
	if err != nil || string(hdr) != "header" {
		t.Fatalf("Read = %q, %v", hdr, err)
	}
	if cap(hdr) != len(hdr) {
		t.Fatalf("view has len %d cap %d: it can be grown into its neighbour", len(hdr), cap(hdr))
	}
	grown := append(hdr, "XXXX"...)
	if next, _ := s.Read(1, id, 6, 9); string(next) != "NEIGHBOUR" {
		t.Fatalf("appending to a view rewrote the neighbouring bytes: %q (grown %q)", next, grown)
	}
	if err := s.Write(1, id, 0, []byte("HEADER")); err != nil {
		t.Fatal(err)
	}
	if string(hdr) != "HEADER" {
		t.Fatalf("view reads %q after the object was rewritten: it is a copy, not a view", hdr)
	}
	if empty, err := s.Read(1, id, 64, 0); err != nil || empty == nil || len(empty) != 0 {
		t.Fatalf("zero-length read at the end = %v, %v; want an empty non-nil view", empty, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Read(1, id, 8, 32) }); allocs != 0 {
		t.Fatalf("Read allocates %v, want 0", allocs)
	}
}

// regionUse reports an actor's (used, limit) region bytes.
func regionUse(s *Store, actor uint32) (used, limit int) {
	if r := s.regions[actor]; r != nil {
		return r.used, r.limit
	}
	return 0, 0
}

// sideOf reports which memory holds the object.
func sideOf(s *Store, actor uint32, id ObjID) (Side, error) {
	o, err := s.lookup(actor, id)
	if err != nil {
		return 0, err
	}
	return o.side, nil
}
