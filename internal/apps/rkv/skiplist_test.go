package rkv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
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

// used is the bytes the actor's objects hold — what its region charges.
func (d *dmoCtx) used() int {
	nic, host := d.st.ActorBytes(d.id)
	return nic + host
}

func (d *dmoCtx) Now() sim.Time            { return 0 }
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
func (d *dmoCtx) Accel(string, int, int) (sim.Time, bool) { return 0, false }

func TestSkipListPutGet(t *testing.T) {
	ctx := newDmoCtx()
	s, err := newSkipList(ctx)
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
	s, _ := newSkipList(ctx)
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
	s, _ := newSkipList(ctx)
	s.Put(ctx, []byte("k"), []byte("v"))
	s.Put(ctx, []byte("k"), nil) // deletion marker
	_, found, tomb, _ := s.Get(ctx, []byte("k"))
	if !found || !tomb {
		t.Fatalf("tombstone: found=%v tomb=%v", found, tomb)
	}
}

func TestSkipListDrainSortedAndResets(t *testing.T) {
	ctx := newDmoCtx()
	s, _ := newSkipList(ctx)
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
	s, _ := newSkipList(ctx)
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
	s, err := newSkipList(ctx)
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
		s, _ := newSkipList(ctx)
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
	c := command{Op: opPut, Key: []byte("k"), Value: []byte("value")}
	out, ok := decodeCmd(encodeCmd(c))
	if !ok || out.Op != opPut || string(out.Key) != "k" || string(out.Value) != "value" {
		t.Fatalf("round trip: %+v %v", out, ok)
	}
	if _, ok := decodeCmd([]byte{1}); ok {
		t.Fatal("short input accepted")
	}
	if _, ok := decodeCmd(nil); ok {
		t.Fatal("nil input accepted")
	}
}

func TestEntriesCodec(t *testing.T) {
	in := []Entry{
		{Key: padded([]byte("a")), Value: []byte("va")},
		{Key: padded([]byte("b")), Tombstone: true},
		{Key: padded([]byte("c")), Value: make([]byte, 300)},
	}
	out := decodeEntries(encodeEntries(in))
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
	s, err := newSkipList(ctx)
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
	var update [maxLevel]uint64
	node, _ := s.findPredecessors(ctx, padded([]byte("k")), &update)
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
	s, err := newSkipList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		s.Put(ctx, []byte(fmt.Sprintf("key-%04d", i)), []byte("v"))
	}
	k := padded([]byte("key-0250"))
	var update [maxLevel]uint64
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

// tightCtx is a list in a region with exactly room bytes left after the
// head sentinel and whatever setup puts in.
func tightCtx(t *testing.T, room int, setup func(*dmoCtx, *skipList)) (*dmoCtx, *skipList) {
	t.Helper()
	ctx := newDmoCtx()
	s, err := newSkipList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(ctx, s)
	}
	used := ctx.used()
	ctx.st.Register(ctx.id, used+room)
	return ctx, s
}

// TestPutOverwriteAllocFailureLeavesNoDanglingValue: an overwrite frees
// the old value before it allocates the new one. When that allocation
// fails the node must not go on naming the object just freed: the key
// reads as deleted, nothing else is lost, and the next Put repairs it.
func TestPutOverwriteAllocFailureLeavesNoDanglingValue(t *testing.T) {
	ctx, s := tightCtx(t, 32, func(ctx *dmoCtx, s *skipList) {
		s.Put(ctx, []byte("k"), []byte("old-value"))
		s.Put(ctx, []byte("other"), []byte("stays"))
	})
	before := ctx.used()
	objects, bytesBefore := ctx.st.Objects(), s.Bytes()

	err := s.Put(ctx, []byte("k"), make([]byte, 64)) // 9 B freed + 32 B of room < 64 B
	if err != dmo.ErrRegionExhausted {
		t.Fatalf("Put = %v, want ErrRegionExhausted", err)
	}
	v, found, tomb, err := s.Get(ctx, []byte("k"))
	if err != nil || !found || !tomb || v != nil {
		t.Fatalf("Get after the failed overwrite = %q found=%v tomb=%v err=%v; want a tombstone and no error", v, found, tomb, err)
	}
	if used := ctx.used(); used != before-len("old-value") {
		t.Fatalf("region use %d → %d, want the old value's %d bytes back and nothing else", before, used, len("old-value"))
	}
	if ctx.st.Objects() != objects-1 || s.Bytes() != bytesBefore-len("old-value") || s.Count() != 2 {
		t.Fatalf("objects %d → %d, bytes %d → %d, count %d", objects, ctx.st.Objects(), bytesBefore, s.Bytes(), s.Count())
	}
	if v, found, _, _ := s.Get(ctx, []byte("other")); !found || string(v) != "stays" {
		t.Fatalf("neighbouring key = %q, %v", v, found)
	}
	if err := s.Put(ctx, []byte("k"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if v, found, tomb, err := s.Get(ctx, []byte("k")); err != nil || !found || tomb || string(v) != "new" {
		t.Fatalf("Get after the repair = %q found=%v tomb=%v err=%v", v, found, tomb, err)
	}
	entries, err := s.Drain(ctx)
	if err != nil || len(entries) != 2 || ctx.st.Objects() != 1 {
		t.Fatalf("Drain = %d entries, %v; %d objects left", len(entries), err, ctx.st.Objects())
	}
}

// TestPutInsertAllocFailureFreesNode: an insert allocates the node, then
// the value. When the value does not fit, the node — not linked yet —
// goes back: the region and the table are as they were before the call.
func TestPutInsertAllocFailureFreesNode(t *testing.T) {
	ctx, s := tightCtx(t, nodeSize(maxLevel)+8, func(ctx *dmoCtx, s *skipList) {
		s.Put(ctx, []byte("a"), []byte("va"))
	})
	before := ctx.used()
	objects := ctx.st.Objects()
	for i := 0; i < 20; i++ { // whatever tower height the coin flips pick
		key := []byte(fmt.Sprintf("new-%02d", i))
		if err := s.Put(ctx, key, make([]byte, 200)); err != dmo.ErrRegionExhausted {
			t.Fatalf("Put = %v, want ErrRegionExhausted", err)
		}
		if used := ctx.used(); used != before || ctx.st.Objects() != objects {
			t.Fatalf("failed insert %d: region use %d → %d, objects %d → %d: the node leaked", i, before, used, objects, ctx.st.Objects())
		}
		if _, found, _, err := s.Get(ctx, key); found || err != nil {
			t.Fatalf("failed insert is visible: found=%v err=%v", found, err)
		}
	}
	if s.Count() != 1 || s.Bytes() != keyLen+2 {
		t.Fatalf("count %d, bytes %d after failed inserts", s.Count(), s.Bytes())
	}
	if err := s.Put(ctx, []byte("b"), []byte("fits")); err != nil {
		t.Fatal(err)
	}
	if v, found, _, _ := s.Get(ctx, []byte("b")); !found || string(v) != "fits" {
		t.Fatalf("insert after the failures = %q, %v", v, found)
	}
}

// TestMemtableCountsPutErrors: the memtable actor has no one to return
// Put's error to (the write was acknowledged at commit); it counts it.
func TestMemtableCountsPutErrors(t *testing.T) {
	ctx := newDmoCtx()
	mt := NewMemtable(1, 1<<20, 2, 3)
	mt.Actor.OnInit(ctx)
	used := ctx.used()
	ctx.st.Register(ctx.id, used+nodeSize(maxLevel)+8)
	apply := func(v []byte) {
		mt.Actor.OnMessage(ctx, actor.Msg{Kind: kindApply, Data: encodeCmd(command{Op: opPut, Key: []byte("k"), Value: v})})
	}
	apply([]byte("fits"))
	if mt.PutErrors != 0 {
		t.Fatalf("PutErrors = %d after a write that fits", mt.PutErrors)
	}
	apply(make([]byte, 500))
	if mt.PutErrors != 1 {
		t.Fatalf("PutErrors = %d after a write the region refused, want 1", mt.PutErrors)
	}
}

// TestSkipListWritesAllocFree: the list's own code allocates nothing on
// the write and read paths — a Put over an existing key allocates what
// ctx.Alloc does (the new value's bytes: the store keeps no per-object
// record) and a Get hit allocates the caller's copy of the value. Node
// headers, value references, links and padded keys are encoded in the
// list's scratch and on the stack.
func TestSkipListWritesAllocFree(t *testing.T) {
	ctx := newDmoCtx()
	s, err := newSkipList(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		s.Put(ctx, []byte(fmt.Sprintf("key-%04d", i)), []byte("v"))
	}
	key, val := []byte("key-0250"), make([]byte, 64)
	var a actor.Ctx = ctx // the handler's view: every call through the interface
	if allocs := testing.AllocsPerRun(200, func() {
		if err := s.Put(a, key, val); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("Put over an existing key allocates %v, want 1 (the value object's bytes)", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := s.Put(a, key, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a tombstone over an existing key allocates %v, want 0", allocs)
	}
	s.Put(a, key, val)
	if allocs := testing.AllocsPerRun(200, func() {
		if v, found, _, err := s.Get(a, key); err != nil || !found || len(v) != len(val) {
			t.Fatal("Get missed")
		}
	}); allocs != 1 {
		t.Fatalf("a Get hit allocates %v, want 1 (the reply's copy of the value)", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { s.Get(a, []byte("absent")) }); allocs != 0 {
		t.Fatalf("a Get miss allocates %v, want 0", allocs)
	}
}

// encodeEntriesRef is encodeEntries as it was before it sized its buffer
// up front: the byte-for-byte reference.
func encodeEntriesRef(es []Entry) []byte {
	var b bytes.Buffer
	for _, e := range es {
		b.WriteByte(byte(len(e.Key)))
		b.Write(e.Key)
		if e.Tombstone {
			b.WriteByte(1)
			continue
		}
		b.WriteByte(0)
		var vl [4]byte
		binary.LittleEndian.PutUint32(vl[:], uint32(len(e.Value)))
		b.Write(vl[:])
		b.Write(e.Value)
	}
	return b.Bytes()
}

// TestEncodeEntriesBytesUnchanged: sizing the buffer once changes how
// often encodeEntries allocates (once) and not one byte of what it
// returns, for drained lists of any shape.
func TestEncodeEntriesBytesUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		ctx := newDmoCtx()
		s, _ := newSkipList(ctx)
		for i, n := 0, rng.Intn(300); i < n; i++ {
			key := []byte(fmt.Sprintf("k%03d", rng.Intn(200)))
			switch rng.Intn(4) {
			case 0:
				s.Put(ctx, key, nil)
			case 1:
				s.Put(ctx, key, []byte{})
			default:
				s.Put(ctx, key, make([]byte, rng.Intn(400)))
			}
		}
		entries, err := s.Drain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, want := encodeEntries(entries), encodeEntriesRef(entries)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d entries encode to %d bytes, the reference encoder's %d differ", round, len(entries), len(got), len(want))
		}
		if len(entries) > 0 && cap(got) != len(got) {
			t.Fatalf("round %d: buffer of %d for %d bytes: not sized from the entries", round, cap(got), len(got))
		}
		if len(entries) > 0 && cap(entries) != len(entries) {
			t.Fatalf("round %d: Drain returned %d entries in room for %d: not sized from the count", round, len(entries), cap(entries))
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		encodeEntries([]Entry{{Key: []byte("a"), Value: make([]byte, 0, 1)}, {Key: []byte("b"), Tombstone: true}})
	}); allocs != 1 {
		t.Fatalf("encodeEntries allocates %v times, want 1", allocs)
	}
}

// TestDecodeCmdBorrows: decodeCmd's Key and Value are views of the
// buffer it was given — no copies — bounded so that appending to one
// cannot run into the bytes after it; empty fields are nil.
func TestDecodeCmdBorrows(t *testing.T) {
	buf := encodeCmd(command{Op: opPut, Key: []byte("key"), Value: []byte("value")})
	c, ok := decodeCmd(buf)
	if !ok || string(c.Key) != "key" || string(c.Value) != "value" {
		t.Fatalf("decodeCmd = %+v, %v", c, ok)
	}
	if &c.Key[0] != &buf[2] || &c.Value[0] != &buf[2+3+2] {
		t.Fatal("Key and Value are copies, not views of the buffer")
	}
	if cap(c.Key) != len(c.Key) || cap(c.Value) != len(c.Value) {
		t.Fatalf("views can be grown: key %d/%d, value %d/%d", len(c.Key), cap(c.Key), len(c.Value), cap(c.Value))
	}
	_ = append(c.Key, "XX"...)
	if again, _ := decodeCmd(buf); string(again.Value) != "value" || len(again.Value) != 5 {
		t.Fatalf("appending to Key rewrote the buffer: %+v", again)
	}
	if allocs := testing.AllocsPerRun(100, func() { decodeCmd(buf) }); allocs != 0 {
		t.Fatalf("decodeCmd allocates %v, want 0", allocs)
	}
	if c, ok := decodeCmd(encodeCmd(command{Op: opDel})); !ok || c.Key != nil || c.Value != nil {
		t.Fatalf("empty fields decode as %+v, %v; want nil", c, ok)
	}
}

// FuzzDecodeCmd: no input panics the decoder; whatever it accepts lies
// inside the input, cannot be grown, and survives a round trip through
// encodeCmd.
func FuzzDecodeCmd(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeCmd(command{Op: opGet, Key: []byte("key-0001")}))
	f.Add(encodeCmd(command{Op: opPut, Key: []byte("k"), Value: []byte("value")}))
	f.Add([]byte{opPut, 200, 1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		c, ok := decodeCmd(p)
		if !ok {
			if c.Op != 0 || c.Key != nil || c.Value != nil {
				t.Fatalf("rejected input decoded to %+v", c)
			}
			return
		}
		inside := func(name string, v []byte, off int) {
			if len(v) == 0 {
				if v != nil {
					t.Fatalf("%s is empty but not nil", name)
				}
				return
			}
			if cap(v) != len(v) {
				t.Fatalf("%s has len %d cap %d", name, len(v), cap(v))
			}
			if off+len(v) > len(p) || &v[0] != &p[off] {
				t.Fatalf("%s is not input[%d:%d]", name, off, off+len(v))
			}
		}
		inside("Key", c.Key, 2)
		inside("Value", c.Value, 2+len(c.Key)+2)
		again, ok := decodeCmd(encodeCmd(c))
		if !ok || again.Op != c.Op || !bytes.Equal(again.Key, c.Key) || !bytes.Equal(again.Value, c.Value) {
			t.Fatalf("round trip of %+v = %+v, %v", c, again, ok)
		}
	})
}
