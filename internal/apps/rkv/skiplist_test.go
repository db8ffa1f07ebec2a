package rkv

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/actor"
	"repro/internal/dmo"
	"repro/internal/sim"
)

// dmoCtx is an actor.Ctx backed by a real dmo.Store, so skip-list unit
// tests exercise exactly the object semantics the runtime provides.
type dmoCtx struct {
	st *dmo.Store
	id uint32
}

func newDmoCtx() *dmoCtx {
	st := dmo.NewStore()
	st.Register(1, 256<<20)
	return &dmoCtx{st: st, id: 1}
}

func (d *dmoCtx) Now() sim.Time            { return 0 }
func (d *dmoCtx) Self() actor.ID           { return actor.ID(d.id) }
func (d *dmoCtx) Send(actor.ID, actor.Msg) {}
func (d *dmoCtx) Reply(m actor.Msg) {
	if m.Reply != nil {
		m.Reply(m)
	}
}
func (d *dmoCtx) Alloc(size int) (uint64, error) { return d.st.Alloc(d.id, size, dmo.NIC) }
func (d *dmoCtx) Free(obj uint64) error          { return d.st.Free(d.id, obj) }
func (d *dmoCtx) ObjRead(obj uint64, off, n int) ([]byte, error) {
	return d.st.Read(d.id, obj, off, n)
}
func (d *dmoCtx) ObjWrite(obj uint64, off int, p []byte) error {
	return d.st.Write(d.id, obj, off, p)
}
func (d *dmoCtx) ObjMigrate(obj uint64) (int, error) {
	return d.st.MigrateObject(d.id, obj, dmo.Host)
}
func (d *dmoCtx) ObjMemset(o uint64, off, n int, b byte) error {
	return d.st.Memset(d.id, o, off, n, b)
}
func (d *dmoCtx) ObjMemcpy(dst uint64, do int, src uint64, so, n int) error {
	return d.st.Memcpy(d.id, dst, do, src, so, n)
}
func (d *dmoCtx) ObjMemmove(o uint64, do, so, n int) error {
	return d.st.Memmove(d.id, o, do, so, n)
}
func (d *dmoCtx) Accel(string, int, int) (sim.Time, bool) { return 0, false }
func (d *dmoCtx) OnNIC() bool                             { return true }

func TestSkipListPutGet(t *testing.T) {
	ctx := newDmoCtx()
	s, err := NewSkipList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		v := []byte(fmt.Sprintf("val-%d", i))
		if err := s.Put(ctx, k, v); err != nil {
			t.Fatal(err)
		}
	}
	if s.Count() != 200 {
		t.Fatalf("Count = %d", s.Count())
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		v, found, tomb, err := s.Get(ctx, k)
		if err != nil || !found || tomb {
			t.Fatalf("Get(%s): %v %v %v", k, found, tomb, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%s) = %q", k, v)
		}
	}
	if _, found, _, _ := s.Get(ctx, []byte("nope")); found {
		t.Fatal("phantom key")
	}
}

func TestSkipListOverwrite(t *testing.T) {
	ctx := newDmoCtx()
	s, _ := NewSkipList(ctx)
	s.Put(ctx, []byte("k"), []byte("v1"))
	before := s.Bytes()
	s.Put(ctx, []byte("k"), []byte("v2-longer"))
	if s.Count() != 1 {
		t.Fatalf("Count after overwrite = %d", s.Count())
	}
	if s.Bytes() <= before {
		t.Fatalf("bytes should grow with longer value: %d → %d", before, s.Bytes())
	}
	v, found, _, _ := s.Get(ctx, []byte("k"))
	if !found || string(v) != "v2-longer" {
		t.Fatalf("overwrite lost: %q", v)
	}
}

func TestSkipListTombstone(t *testing.T) {
	ctx := newDmoCtx()
	s, _ := NewSkipList(ctx)
	s.Put(ctx, []byte("k"), []byte("v"))
	s.Put(ctx, []byte("k"), nil) // deletion marker
	_, found, tomb, _ := s.Get(ctx, []byte("k"))
	if !found || !tomb {
		t.Fatalf("tombstone: found=%v tomb=%v", found, tomb)
	}
}

func TestSkipListDrainSortedAndResets(t *testing.T) {
	ctx := newDmoCtx()
	s, _ := NewSkipList(ctx)
	keys := []string{"delta", "alpha", "charlie", "bravo"}
	for _, k := range keys {
		s.Put(ctx, []byte(k), []byte("v-"+k))
	}
	objsBefore := ctx.st.Objects()
	entries, err := s.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("drained %d", len(entries))
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].Key, entries[j].Key) < 0
	}) {
		t.Fatal("drain not sorted")
	}
	if s.Count() != 0 || s.Bytes() != 0 {
		t.Fatal("not reset after drain")
	}
	// Node and value objects were freed (only head remains of the list).
	if ctx.st.Objects() >= objsBefore {
		t.Fatalf("objects not freed: %d → %d", objsBefore, ctx.st.Objects())
	}
	// List usable after drain.
	if err := s.Put(ctx, []byte("new"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if v, found, _, _ := s.Get(ctx, []byte("new")); !found || string(v) != "x" {
		t.Fatal("list broken after drain")
	}
}

func TestSkipListVisitsGrowLogarithmically(t *testing.T) {
	ctx := newDmoCtx()
	s, _ := NewSkipList(ctx)
	for i := 0; i < 2000; i++ {
		s.Put(ctx, []byte(fmt.Sprintf("%08d", i)), []byte("v"))
	}
	s.Get(ctx, []byte("00001000"))
	if s.Visits > 200 {
		t.Fatalf("lookup visited %d nodes in a 2000-entry list; tower broken", s.Visits)
	}
	if s.visitCost() <= 0 {
		t.Fatal("no cost")
	}
}

func TestSkipListRegionExhaustion(t *testing.T) {
	st := dmo.NewStore()
	st.Register(1, 2048) // tiny region
	ctx := &dmoCtx{st: st, id: 1}
	s, err := NewSkipList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for i := 0; i < 100 && firstErr == nil; i++ {
		firstErr = s.Put(ctx, []byte(fmt.Sprintf("k%02d", i)), make([]byte, 64))
	}
	if firstErr == nil {
		t.Fatal("tiny region never exhausted")
	}
}

// Property: skip list agrees with a reference map under random put/
// delete/get sequences.
func TestSkipListMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		ctx := newDmoCtx()
		s, _ := NewSkipList(ctx)
		ref := map[string]string{}
		for i, op := range ops {
			k := fmt.Sprintf("key-%02d", op%40)
			switch op % 3 {
			case 0, 1:
				v := fmt.Sprintf("v%d", i)
				if err := s.Put(ctx, []byte(k), []byte(v)); err != nil {
					return false
				}
				ref[k] = v
			case 2:
				s.Put(ctx, []byte(k), nil)
				delete(ref, k)
			}
		}
		for op := 0; op < 40; op++ {
			k := fmt.Sprintf("key-%02d", op)
			v, found, tomb, err := s.Get(ctx, []byte(k))
			if err != nil {
				return false
			}
			want, ok := ref[k]
			if ok {
				if !found || tomb || string(v) != want {
					return false
				}
			} else if found && !tomb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdCodec(t *testing.T) {
	c := Cmd{Op: OpPut, Key: []byte("k"), Value: []byte("value")}
	out, ok := DecodeCmd(EncodeCmd(c))
	if !ok || out.Op != OpPut || string(out.Key) != "k" || string(out.Value) != "value" {
		t.Fatalf("round trip: %+v %v", out, ok)
	}
	if _, ok := DecodeCmd([]byte{1}); ok {
		t.Fatal("short input accepted")
	}
	if _, ok := DecodeCmd(nil); ok {
		t.Fatal("nil input accepted")
	}
}

func TestEntriesCodec(t *testing.T) {
	in := []Entry{
		{Key: padKey([]byte("a")), Value: []byte("va")},
		{Key: padKey([]byte("b")), Tombstone: true},
		{Key: padKey([]byte("c")), Value: make([]byte, 300)},
	}
	out := DecodeEntries(EncodeEntries(in))
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if !out[1].Tombstone || out[1].Value != nil {
		t.Fatal("tombstone lost")
	}
	if len(out[2].Value) != 300 {
		t.Fatal("long value truncated")
	}
}

// TestGetValueSurvivesOverwriteAndFree: ObjRead hands out views into the
// objects, and a value's object is freed when the key is overwritten or
// the list drained — so the value Get returns, and the values Drain
// returns, are the caller's own copies.
func TestGetValueSurvivesOverwriteAndFree(t *testing.T) {
	ctx := newDmoCtx()
	s, err := NewSkipList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(ctx, []byte("k"), []byte("first"))
	got, found, _, err := s.Get(ctx, []byte("k"))
	if err != nil || !found || string(got) != "first" {
		t.Fatalf("Get = %q %v %v", got, found, err)
	}
	// The freed object's bytes are scribbled over first, as a reused
	// region would be; a view would show it.
	var update [MaxLevel]uint64
	node, _ := s.findPredecessors(ctx, padKey([]byte("k")), &update)
	vo, _, _ := s.nodeVal(ctx, node)
	if err := ctx.ObjMemset(vo, 0, len("first"), 0xEE); err != nil {
		t.Fatal(err)
	}
	s.Put(ctx, []byte("k"), []byte("other")) // frees the first value's object
	if string(got) != "first" {
		t.Fatalf("value from Get reads %q after its key was overwritten", got)
	}
	s.Put(ctx, []byte("j"), []byte("second"))
	entries, err := s.Drain(ctx) // frees every node and value object
	if err != nil || len(entries) != 2 {
		t.Fatalf("Drain = %v, %v", entries, err)
	}
	if ctx.st.Objects() != 1 {
		t.Fatalf("%d objects left after Drain, want the head sentinel", ctx.st.Objects())
	}
	s.Put(ctx, []byte("j"), []byte("SECOND")) // reuse the store after the drain
	if string(entries[0].Key[:1]) != "j" || string(entries[0].Value) != "second" || string(entries[1].Value) != "other" {
		t.Fatalf("drained entries changed after their objects were freed: %q=%q %q=%q",
			entries[0].Key, entries[0].Value, entries[1].Key, entries[1].Value)
	}
}

// TestSkipListHeaderReadsAllocFree: walking the list reads 8–32-byte
// node headers — key, value reference, forward pointers — through
// ObjRead, many per operation; none of them allocates.
func TestSkipListHeaderReadsAllocFree(t *testing.T) {
	ctx := newDmoCtx()
	s, err := NewSkipList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		s.Put(ctx, []byte(fmt.Sprintf("key-%04d", i)), []byte("v"))
	}
	k := padKey([]byte("key-0250"))
	var update [MaxLevel]uint64
	visits := 0
	allocs := testing.AllocsPerRun(100, func() {
		s.Visits = 0
		node, err := s.findPredecessors(ctx, k, &update)
		if err != nil || node == 0 {
			t.Fatal("key not found")
		}
		if _, err := s.nodeKey(ctx, node); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.nodeVal(ctx, node); err != nil {
			t.Fatal(err)
		}
		visits = s.Visits
	})
	if visits < 5 {
		t.Fatalf("the walk visited %d nodes: not a walk", visits)
	}
	if allocs != 0 {
		t.Fatalf("a %d-node walk allocates %v, want 0", visits, allocs)
	}
}
