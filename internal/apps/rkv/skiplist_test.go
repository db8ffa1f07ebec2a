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
		if err := s.put(ctx, k, v); err != nil {
			t.Fatal(err)
		}
	}
	if s.count != 200 {
		t.Fatalf("count = %d", s.count)
	}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		v, found, err := s.get(ctx, k)
		if err != nil || !found {
			t.Fatalf("Get(%s): %v %v", k, found, err)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%s) = %q", k, v)
		}
	}
	if _, found, _ := s.get(ctx, []byte("nope")); found {
		t.Fatal("phantom key")
	}
}

func TestSkipListOverwrite(t *testing.T) {
	ctx := newDmoCtx()
	s, _ := newSkipList(ctx)
	s.put(ctx, []byte("k"), []byte("v1"))
	before := s.bytes
	s.put(ctx, []byte("k"), []byte("v2-longer"))
	if s.count != 1 {
		t.Fatalf("count after overwrite = %d", s.count)
	}
	if s.bytes <= before {
		t.Fatalf("bytes should grow with longer value: %d → %d", before, s.bytes)
	}
	v, found, _ := s.get(ctx, []byte("k"))
	if !found || string(v) != "v2-longer" {
		t.Fatalf("overwrite lost: %q", v)
	}
}

// TestSkipListTombstone: a 0-byte value is a value. It overwrites the
// old one in a 0-byte object of its own and reads back present and empty.
func TestSkipListTombstone(t *testing.T) {
	ctx := newDmoCtx()
	s, _ := newSkipList(ctx)
	s.put(ctx, []byte("k"), []byte("v"))
	objects := ctx.st.Objects()
	if err := s.put(ctx, []byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	v, found, err := s.get(ctx, []byte("k"))
	if err != nil || !found || len(v) != 0 {
		t.Fatalf("Get after an empty put = %q found=%v err=%v; want present and empty", v, found, err)
	}
	if ctx.st.Objects() != objects || s.count != 1 || s.bytes != keyLen {
		t.Fatalf("objects %d → %d, count %d, bytes %d", objects, ctx.st.Objects(), s.count, s.bytes)
	}
}

func TestSkipListDrainSortedAndResets(t *testing.T) {
	ctx := newDmoCtx()
	s, _ := newSkipList(ctx)
	keys := []string{"delta", "alpha", "charlie", "bravo"}
	for _, k := range keys {
		s.put(ctx, []byte(k), []byte("v-"+k))
	}
	objsBefore := ctx.st.Objects()
	entries, err := s.drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("drained %d", len(entries))
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].key, entries[j].key) < 0
	}) {
		t.Fatal("drain not sorted")
	}
	if s.count != 0 || s.bytes != 0 {
		t.Fatal("not reset after drain")
	}
	// Node and value objects were freed (only head remains of the list).
	if ctx.st.Objects() >= objsBefore {
		t.Fatalf("objects not freed: %d → %d", objsBefore, ctx.st.Objects())
	}
	// List usable after drain.
	if err := s.put(ctx, []byte("new"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := s.get(ctx, []byte("new")); !found || string(v) != "x" {
		t.Fatal("list broken after drain")
	}
}

func TestSkipListVisitsGrowLogarithmically(t *testing.T) {
	ctx := newDmoCtx()
	s, _ := newSkipList(ctx)
	for i := 0; i < 2000; i++ {
		s.put(ctx, []byte(fmt.Sprintf("%08d", i)), []byte("v"))
	}
	s.get(ctx, []byte("00001000"))
	if s.visits > 200 {
		t.Fatalf("lookup visited %d nodes in a 2000-entry list; tower broken", s.visits)
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
		firstErr = s.put(ctx, []byte(fmt.Sprintf("k%02d", i)), make([]byte, 64))
	}
	if firstErr == nil {
		t.Fatal("tiny region never exhausted")
	}
}

// Property: skip list agrees with a reference map under random
// sequences of puts, empty puts and gets.
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
				if err := s.put(ctx, []byte(k), []byte(v)); err != nil {
					return false
				}
				ref[k] = v
			case 2:
				if err := s.put(ctx, []byte(k), nil); err != nil {
					return false
				}
				ref[k] = ""
			}
		}
		for op := 0; op < 40; op++ {
			k := fmt.Sprintf("key-%02d", op)
			v, found, err := s.get(ctx, []byte(k))
			want, ok := ref[k]
			if err != nil || found != ok || string(v) != want {
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
	c := command{op: opPut, key: []byte("k"), value: []byte("value")}
	out, ok := decodeCmd(encodeCmd(c))
	if !ok || out.op != opPut || string(out.key) != "k" || string(out.value) != "value" {
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
	in := []entry{
		{key: padded([]byte("a")), value: []byte("va")},
		{key: padded([]byte("b"))},
		{key: padded([]byte("c")), value: make([]byte, 300)},
	}
	out := decodeEntries(encodeEntries(in))
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if !bytes.Equal(out[1].key, in[1].key) || len(out[1].value) != 0 || string(out[0].value) != "va" {
		t.Fatalf("entries decode as %q=%q %q=%q", out[0].key, out[0].value, out[1].key, out[1].value)
	}
	if len(out[2].value) != 300 {
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
	s.put(ctx, []byte("k"), []byte("first"))
	got, found, err := s.get(ctx, []byte("k"))
	if err != nil || !found || string(got) != "first" {
		t.Fatalf("Get = %q %v %v", got, found, err)
	}
	// The freed object's bytes are scribbled over first, as a reused
	// region would be; a view would show it.
	var update [maxLevel]uint64
	node, _ := s.findPredecessors(ctx, padded([]byte("k")), &update)
	vo, _, _ := s.nodeVal(ctx, node)
	if err := ctx.ObjWrite(vo, 0, bytes.Repeat([]byte{0xEE}, len("first"))); err != nil {
		t.Fatal(err)
	}
	s.put(ctx, []byte("k"), []byte("other")) // frees the first value's object
	if string(got) != "first" {
		t.Fatalf("value from Get reads %q after its key was overwritten", got)
	}
	s.put(ctx, []byte("j"), []byte("second"))
	entries, err := s.drain(ctx) // frees every node and value object
	if err != nil || len(entries) != 2 {
		t.Fatalf("Drain = %v, %v", entries, err)
	}
	if ctx.st.Objects() != 1 {
		t.Fatalf("%d objects left after Drain, want the head sentinel", ctx.st.Objects())
	}
	s.put(ctx, []byte("j"), []byte("SECOND")) // reuse the store after the drain
	if string(entries[0].key[:1]) != "j" || string(entries[0].value) != "second" || string(entries[1].value) != "other" {
		t.Fatalf("drained entries changed after their objects were freed: %q=%q %q=%q",
			entries[0].key, entries[0].value, entries[1].key, entries[1].value)
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
		s.put(ctx, []byte(fmt.Sprintf("key-%04d", i)), []byte("v"))
	}
	k := padded([]byte("key-0250"))
	var update [maxLevel]uint64
	visits := 0
	allocs := testing.AllocsPerRun(100, func() {
		s.visits = 0
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
		visits = s.visits
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

// TestPutOverwriteAllocFailureLeavesNoDanglingValue: an overwrite
// allocates the new value before it frees the old one. When that
// allocation fails the node keeps naming its old value: the key reads
// as it did, the region and the table are as they were, and the next
// Put that fits replaces it.
func TestPutOverwriteAllocFailureLeavesNoDanglingValue(t *testing.T) {
	ctx, s := tightCtx(t, 32, func(ctx *dmoCtx, s *skipList) {
		s.put(ctx, []byte("k"), []byte("old-value"))
		s.put(ctx, []byte("other"), []byte("stays"))
	})
	before := ctx.used()
	objects, bytesBefore := ctx.st.Objects(), s.bytes

	err := s.put(ctx, []byte("k"), make([]byte, 64)) // 32 B of room < 64 B
	if err != dmo.ErrRegionExhausted {
		t.Fatalf("Put = %v, want ErrRegionExhausted", err)
	}
	v, found, err := s.get(ctx, []byte("k"))
	if err != nil || !found || string(v) != "old-value" {
		t.Fatalf("Get after the failed overwrite = %q found=%v err=%v; want the old value", v, found, err)
	}
	if used := ctx.used(); used != before {
		t.Fatalf("region use %d → %d after a refused overwrite", before, used)
	}
	if ctx.st.Objects() != objects || s.bytes != bytesBefore || s.count != 2 {
		t.Fatalf("objects %d → %d, bytes %d → %d, count %d", objects, ctx.st.Objects(), bytesBefore, s.bytes, s.count)
	}
	if v, found, _ := s.get(ctx, []byte("other")); !found || string(v) != "stays" {
		t.Fatalf("neighbouring key = %q, %v", v, found)
	}
	if err := s.put(ctx, []byte("k"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := s.get(ctx, []byte("k")); err != nil || !found || string(v) != "new" {
		t.Fatalf("Get after an overwrite that fits = %q found=%v err=%v", v, found, err)
	}
	entries, err := s.drain(ctx)
	if err != nil || len(entries) != 2 || ctx.st.Objects() != 1 {
		t.Fatalf("Drain = %d entries, %v; %d objects left", len(entries), err, ctx.st.Objects())
	}
}

// TestPutInsertAllocFailureFreesNode: an insert allocates the node, then
// the value. When the value does not fit, the node — not linked yet —
// goes back: the region and the table are as they were before the call.
func TestPutInsertAllocFailureFreesNode(t *testing.T) {
	ctx, s := tightCtx(t, nodeSize(maxLevel)+8, func(ctx *dmoCtx, s *skipList) {
		s.put(ctx, []byte("a"), []byte("va"))
	})
	before := ctx.used()
	objects := ctx.st.Objects()
	for i := 0; i < 20; i++ { // whatever tower height the coin flips pick
		key := []byte(fmt.Sprintf("new-%02d", i))
		if err := s.put(ctx, key, make([]byte, 200)); err != dmo.ErrRegionExhausted {
			t.Fatalf("Put = %v, want ErrRegionExhausted", err)
		}
		if used := ctx.used(); used != before || ctx.st.Objects() != objects {
			t.Fatalf("failed insert %d: region use %d → %d, objects %d → %d: the node leaked", i, before, used, objects, ctx.st.Objects())
		}
		if _, found, err := s.get(ctx, key); found || err != nil {
			t.Fatalf("failed insert is visible: found=%v err=%v", found, err)
		}
	}
	if s.count != 1 || s.bytes != keyLen+2 {
		t.Fatalf("count %d, bytes %d after failed inserts", s.count, s.bytes)
	}
	if err := s.put(ctx, []byte("b"), []byte("fits")); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := s.get(ctx, []byte("b")); !found || string(v) != "fits" {
		t.Fatalf("insert after the failures = %q, %v", v, found)
	}
}

// TestMemtableCountsPutErrors: the memtable actor has no one to return
// Put's error to (the write was acknowledged at commit), so an overwrite
// the region refuses is lost, and the key keeps its last applied value.
func TestMemtableCountsPutErrors(t *testing.T) {
	ctx := newDmoCtx()
	mt := NewMemtable(1, 1<<20, 2, 3)
	mt.Actor.OnInit(ctx)
	used := ctx.used()
	ctx.st.Register(ctx.id, used+nodeSize(maxLevel)+8)
	apply := func(v []byte) {
		mt.Actor.OnMessage(ctx, actor.Msg{Kind: kindApply, Data: encodeCmd(command{op: opPut, key: []byte("k"), value: v})})
	}
	var reply []byte
	get := func() {
		mt.Actor.OnMessage(ctx, msgWith(kindGet, encodeCmd(command{op: opGet, key: []byte("k")}),
			func(m []byte) { reply = m }))
	}
	apply([]byte("fits"))
	if get(); StatusOf(reply) != StatusOK || string(reply[1:]) != "fits" {
		t.Fatalf("get = %q after a write that fits", reply)
	}
	apply(make([]byte, 500))
	if get(); StatusOf(reply) != StatusOK || string(reply[1:]) != "fits" {
		t.Fatalf("get = %q after an overwrite the region refused, want the value that fit", reply)
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
		s.put(ctx, []byte(fmt.Sprintf("key-%04d", i)), []byte("v"))
	}
	key, val := []byte("key-0250"), make([]byte, 64)
	var a actor.Ctx = ctx // the handler's view: every call through the interface
	if allocs := testing.AllocsPerRun(200, func() {
		if err := s.put(a, key, val); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("Put over an existing key allocates %v, want 1 (the value object's bytes)", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := s.put(a, key, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a 0-byte value over an existing key allocates %v, want 0", allocs)
	}
	s.put(a, key, val)
	if allocs := testing.AllocsPerRun(200, func() {
		if v, found, err := s.get(a, key); err != nil || !found || len(v) != len(val) {
			t.Fatal("Get missed")
		}
	}); allocs != 1 {
		t.Fatalf("a Get hit allocates %v, want 1 (the reply's copy of the value)", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { s.get(a, []byte("absent")) }); allocs != 0 {
		t.Fatalf("a Get miss allocates %v, want 0", allocs)
	}
}

// encodeEntriesRef is encodeEntries as it was before it sized its buffer
// up front: the byte-for-byte reference.
func encodeEntriesRef(es []entry) []byte {
	var b bytes.Buffer
	for _, e := range es {
		b.WriteByte(byte(len(e.key)))
		b.Write(e.key)
		b.WriteByte(0)
		var vl [4]byte
		binary.LittleEndian.PutUint32(vl[:], uint32(len(e.value)))
		b.Write(vl[:])
		b.Write(e.value)
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
				s.put(ctx, key, nil)
			case 1:
				s.put(ctx, key, []byte{})
			default:
				s.put(ctx, key, make([]byte, rng.Intn(400)))
			}
		}
		entries, err := s.drain(ctx)
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
		encodeEntries([]entry{{key: []byte("a"), value: make([]byte, 0, 1)}, {key: []byte("b")}})
	}); allocs != 1 {
		t.Fatalf("encodeEntries allocates %v times, want 1", allocs)
	}
}

// TestDecodeCmdBorrows: decodeCmd's Key and Value are views of the
// buffer it was given — no copies — bounded so that appending to one
// cannot run into the bytes after it; empty fields are nil.
func TestDecodeCmdBorrows(t *testing.T) {
	buf := encodeCmd(command{op: opPut, key: []byte("key"), value: []byte("value")})
	c, ok := decodeCmd(buf)
	if !ok || string(c.key) != "key" || string(c.value) != "value" {
		t.Fatalf("decodeCmd = %+v, %v", c, ok)
	}
	if &c.key[0] != &buf[2] || &c.value[0] != &buf[2+3+2] {
		t.Fatal("Key and Value are copies, not views of the buffer")
	}
	if cap(c.key) != len(c.key) || cap(c.value) != len(c.value) {
		t.Fatalf("views can be grown: key %d/%d, value %d/%d", len(c.key), cap(c.key), len(c.value), cap(c.value))
	}
	_ = append(c.key, "XX"...)
	if again, _ := decodeCmd(buf); string(again.value) != "value" || len(again.value) != 5 {
		t.Fatalf("appending to Key rewrote the buffer: %+v", again)
	}
	if allocs := testing.AllocsPerRun(100, func() { decodeCmd(buf) }); allocs != 0 {
		t.Fatalf("decodeCmd allocates %v, want 0", allocs)
	}
	if c, ok := decodeCmd(encodeCmd(command{op: opGet})); !ok || c.key != nil || c.value != nil {
		t.Fatalf("empty fields decode as %+v, %v; want nil", c, ok)
	}
}

// FuzzDecodeCmd: no input panics the decoder; whatever it accepts is a
// GET or a PUT, lies inside the input, cannot be grown, and survives a
// round trip through encodeCmd.
func FuzzDecodeCmd(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeCmd(command{op: opGet, key: []byte("key-0001")}))
	f.Add(encodeCmd(command{op: opPut, key: []byte("k"), value: []byte("value")}))
	f.Add([]byte{opPut, 200, 1, 2, 3})
	f.Add(encodeCmd(command{op: 3, key: []byte("k")}))
	f.Add(encodeCmd(command{op: 7, key: []byte("k"), value: []byte("v")}))
	f.Fuzz(func(t *testing.T, p []byte) {
		c, ok := decodeCmd(p)
		if !ok {
			if c.op != 0 || c.key != nil || c.value != nil {
				t.Fatalf("rejected input decoded to %+v", c)
			}
			return
		}
		if c.op != opGet && c.op != opPut {
			t.Fatalf("accepted op %d", c.op)
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
		inside("Key", c.key, 2)
		inside("Value", c.value, 2+len(c.key)+2)
		again, ok := decodeCmd(encodeCmd(c))
		if !ok || again.op != c.op || !bytes.Equal(again.key, c.key) || !bytes.Equal(again.value, c.value) {
			t.Fatalf("round trip of %+v = %+v, %v", c, again, ok)
		}
	})
}
