package dmo

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// The reference model the table is checked against: the object table as
// it was before it became a page table — a plain map from ID to record —
// with the same region accounting and the same order of checks.

type modelObj struct {
	owner uint32
	side  Side
	data  []byte
}

type model struct {
	objs       map[ObjID]*modelObj
	used       map[uint32]int
	limit      map[uint32]int
	next       ObjID
	migrations uint64
	migrated   uint64
}

// errOther stands for any error that is not one of the package's
// sentinels (negative size, memcpy across PCIe).
var errOther = errors.New("model: unnamed error")

func newModel() *model {
	return &model{objs: map[ObjID]*modelObj{}, used: map[uint32]int{}, limit: map[uint32]int{}, next: 1}
}

func (m *model) register(actor uint32, limit int) { m.limit[actor] = limit }

func (m *model) alloc(actor uint32, size int, side Side) (ObjID, error) {
	if size < 0 {
		return 0, errOther
	}
	limit, ok := m.limit[actor]
	if !ok {
		return 0, ErrNoRegion
	}
	if m.used[actor]+size > limit {
		return 0, ErrRegionExhausted
	}
	m.used[actor] += size
	id := m.next
	m.next++
	m.objs[id] = &modelObj{owner: actor, side: side, data: make([]byte, size)}
	return id, nil
}

func (m *model) lookup(actor uint32, id ObjID) (*modelObj, error) {
	o, ok := m.objs[id]
	if !ok {
		return nil, ErrNoSuchObject
	}
	if o.owner != actor {
		return nil, ErrWrongActor
	}
	return o, nil
}

func (m *model) free(actor uint32, id ObjID) error {
	o, err := m.lookup(actor, id)
	if err != nil {
		return err
	}
	m.used[actor] -= len(o.data)
	delete(m.objs, id)
	return nil
}

func (m *model) read(actor uint32, id ObjID, off, n int) ([]byte, error) {
	o, err := m.lookup(actor, id)
	if err != nil {
		return nil, err
	}
	if off < 0 || n < 0 || off+n > len(o.data) {
		return nil, ErrBounds
	}
	return o.data[off : off+n], nil
}

func (m *model) write(actor uint32, id ObjID, off int, p []byte) error {
	o, err := m.lookup(actor, id)
	if err != nil {
		return err
	}
	if off < 0 || off+len(p) > len(o.data) {
		return ErrBounds
	}
	copy(o.data[off:], p)
	return nil
}

func (m *model) memcpy(actor uint32, dst ObjID, dstOff int, src ObjID, srcOff, n int) error {
	d, err := m.lookup(actor, dst)
	if err != nil {
		return err
	}
	s, err := m.lookup(actor, src)
	if err != nil {
		return err
	}
	if d.side != s.side {
		return errOther
	}
	if srcOff < 0 || n < 0 || srcOff+n > len(s.data) || dstOff < 0 || dstOff+n > len(d.data) {
		return ErrBounds
	}
	copy(d.data[dstOff:dstOff+n], s.data[srcOff:srcOff+n])
	return nil
}

func (m *model) migrateActor(actor uint32, to Side) int {
	total := 0
	for _, o := range m.objs {
		if o.owner == actor && o.side != to {
			o.side = to
			total += len(o.data)
		}
	}
	if total > 0 {
		m.migrations++
		m.migrated += uint64(total)
	}
	return total
}

func (m *model) migrateObject(actor uint32, id ObjID, to Side) (int, error) {
	o, err := m.lookup(actor, id)
	if err != nil {
		return 0, err
	}
	if o.side == to {
		return 0, nil
	}
	o.side = to
	m.migrations++
	m.migrated += uint64(len(o.data))
	return len(o.data), nil
}

func (m *model) actorBytes(actor uint32) (nic, host int) {
	for _, o := range m.objs {
		if o.owner != actor {
			continue
		}
		if o.side == NIC {
			nic += len(o.data)
		} else {
			host += len(o.data)
		}
	}
	return nic, host
}

func (m *model) destroyActor(actor uint32) {
	for id, o := range m.objs {
		if o.owner == actor {
			delete(m.objs, id)
		}
	}
	delete(m.used, actor)
	delete(m.limit, actor)
}

// sameErr: the store returned the error the model did.
func sameErr(got, want error) bool {
	if want == errOther {
		switch got {
		case nil, ErrNoSuchObject, ErrWrongActor, ErrRegionExhausted, ErrBounds, ErrNoRegion:
			return false
		}
		return true
	}
	return got == want
}

// opStream decodes table operations from a byte string; an exhausted
// stream reads as zeros.
type opStream struct {
	p []byte
}

func (s *opStream) more() bool { return len(s.p) > 0 }

func (s *opStream) u8() int {
	if len(s.p) == 0 {
		return 0
	}
	b := s.p[0]
	s.p = s.p[1:]
	return int(b)
}

func (s *opStream) u16() int { return s.u8() | s.u8()<<8 }

// The actors of a run: modelActors are registered, the one after them
// never is.
const (
	modelActors      = 4
	modelRegionLimit = 6 << 10
)

// runOps drives a Store and the model through the operations data
// encodes, failing t at the first difference, and returns how many it
// ran. Every operation's result is compared on the spot; the whole table
// is compared every checkEvery operations and at the end.
func runOps(t testing.TB, data []byte) int {
	const checkEvery = 4096
	st, m := NewStore(), newModel()
	for a := uint32(1); a <= modelActors; a++ {
		st.Register(a, modelRegionLimit)
		m.register(a, modelRegionLimit)
	}
	in := &opStream{p: data}
	var known []ObjID // IDs handed out and not yet seen freed, for picking

	// pick returns an object ID and an actor to use it as: mostly a live
	// object and its owner, sometimes a stale, foreign or never-issued ID.
	pick := func() (ObjID, uint32) {
		sel := in.u8()
		var id ObjID
		if len(known) > 0 && sel&7 != 0 {
			id = known[in.u16()%len(known)]
		} else {
			id = ObjID(in.u16()) % (m.next + 3)
		}
		actor := uint32(1 + (sel>>3)%(modelActors+1))
		if o, ok := m.objs[id]; ok && sel&0xc0 != 0 {
			actor = o.owner
		}
		return id, actor
	}
	forget := func() {
		kept := known[:0]
		for _, id := range known {
			if _, ok := m.objs[id]; ok {
				kept = append(kept, id)
			}
		}
		known = kept
	}

	steps := 0
	for in.more() {
		steps++
		switch op := in.u8() % 16; op {
		case 0, 1, 2, 3:
			actor := uint32(1 + in.u8()%(modelActors+1))
			size := in.u16() % 320
			if size == 319 {
				size = -1
			}
			side := Side(in.u8() & 1)
			got, gerr := st.Alloc(actor, size, side)
			want, werr := m.alloc(actor, size, side)
			if got != want || !sameErr(gerr, werr) {
				t.Fatalf("step %d: Alloc(%d, %d, %v) = %d, %v; model %d, %v", steps, actor, size, side, got, gerr, want, werr)
			}
			if werr == nil {
				known = append(known, want)
			}
		case 4, 5, 6:
			id, actor := pick()
			gerr, werr := st.Free(actor, id), m.free(actor, id)
			if !sameErr(gerr, werr) {
				t.Fatalf("step %d: Free(%d, %d) = %v; model %v", steps, actor, id, gerr, werr)
			}
			if werr == nil {
				forget()
			}
		case 7, 8:
			id, actor := pick()
			off, n := in.u8()-2, in.u8()-2
			got, gerr := st.Read(actor, id, off, n)
			want, werr := m.read(actor, id, off, n)
			if !sameErr(gerr, werr) || !bytes.Equal(got, want) {
				t.Fatalf("step %d: Read(%d, %d, %d, %d) = %x, %v; model %x, %v", steps, actor, id, off, n, got, gerr, want, werr)
			}
			gn, gerr := st.Size(actor, id)
			if o, werr := m.lookup(actor, id); !sameErr(gerr, werr) || (werr == nil && gn != len(o.data)) {
				t.Fatalf("step %d: Size(%d, %d) = %d, %v; model %v", steps, actor, id, gn, gerr, werr)
			}
		case 9, 10:
			id, actor := pick()
			off := in.u8() - 2
			p := make([]byte, in.u8()%48)
			fill := in.u8()
			for i := range p {
				p[i] = byte(fill + i)
			}
			gerr, werr := st.Write(actor, id, off, p), m.write(actor, id, off, p)
			if !sameErr(gerr, werr) {
				t.Fatalf("step %d: Write(%d, %d, %d, %d bytes) = %v; model %v", steps, actor, id, off, len(p), gerr, werr)
			}
		case 11:
			dst, actor := pick()
			src, _ := pick()
			dstOff, srcOff, n := in.u8()-2, in.u8()-2, in.u8()%64-1
			gerr := st.Memcpy(actor, dst, dstOff, src, srcOff, n)
			werr := m.memcpy(actor, dst, dstOff, src, srcOff, n)
			if !sameErr(gerr, werr) {
				t.Fatalf("step %d: Memcpy(%d, %d+%d, %d+%d, %d) = %v; model %v", steps, actor, dst, dstOff, src, srcOff, n, gerr, werr)
			}
		case 12:
			id, actor := pick()
			to := Side(in.u8() & 1)
			got, gerr := st.MigrateObject(actor, id, to)
			want, werr := m.migrateObject(actor, id, to)
			if got != want || !sameErr(gerr, werr) {
				t.Fatalf("step %d: MigrateObject(%d, %d, %v) = %d, %v; model %d, %v", steps, actor, id, to, got, gerr, want, werr)
			}
		case 13:
			actor := uint32(1 + in.u8()%(modelActors+1))
			to := Side(in.u8() & 1)
			if got, want := st.MigrateActor(actor, to), m.migrateActor(actor, to); got != want {
				t.Fatalf("step %d: MigrateActor(%d, %v) = %d; model %d", steps, actor, to, got, want)
			}
		case 14:
			// Destroying an actor is rare, and it comes back with an
			// empty region so the run goes on using it.
			if in.u8()%8 != 0 {
				break
			}
			actor := uint32(1 + in.u8()%modelActors)
			st.DestroyActor(actor)
			m.destroyActor(actor)
			st.Register(actor, modelRegionLimit)
			m.register(actor, modelRegionLimit)
			forget()
		case 15:
			actor := uint32(1 + in.u8()%(modelActors+1))
			gn, gh := st.ActorBytes(actor)
			wn, wh := m.actorBytes(actor)
			if gn != wn || gh != wh {
				t.Fatalf("step %d: ActorBytes(%d) = %d, %d; model %d, %d", steps, actor, gn, gh, wn, wh)
			}
		}
		if st.Objects() != len(m.objs) {
			t.Fatalf("step %d: Objects() = %d; model %d", steps, st.Objects(), len(m.objs))
		}
		if steps%checkEvery == 0 {
			compareTables(t, st, m)
		}
	}
	compareTables(t, st, m)
	return steps
}

// compareTables checks every ID ever issued (and a page past the last),
// every region and the migration counters, then the table's own
// bookkeeping: per-page live counts, no empty filled page still linked,
// spare pages blank.
func compareTables(t testing.TB, st *Store, m *model) {
	t.Helper()
	if st.nextID != m.next {
		t.Fatalf("nextID = %d; model %d", st.nextID, m.next)
	}
	for id := ObjID(0); id < m.next+pageSize; id++ {
		o, ok := m.objs[id]
		if !ok {
			if _, err := st.Size(1, id); err != ErrNoSuchObject {
				t.Fatalf("dead object %d: Size = %v, want ErrNoSuchObject", id, err)
			}
			continue
		}
		got, err := st.Read(o.owner, id, 0, len(o.data))
		if err != nil || !bytes.Equal(got, o.data) {
			t.Fatalf("object %d: Read = %x, %v; model %x", id, got, err, o.data)
		}
		if side, err := sideOf(st, o.owner, id); err != nil || side != o.side {
			t.Fatalf("object %d: SideOf = %v, %v; model %v", id, side, err, o.side)
		}
		if _, err := st.Size(o.owner+1, id); err != ErrWrongActor {
			t.Fatalf("object %d read as another actor: %v, want ErrWrongActor", id, err)
		}
	}
	for a := uint32(1); a <= modelActors+1; a++ {
		used, limit := regionUse(st, a)
		if used != m.used[a] || limit != m.limit[a] {
			t.Fatalf("actor %d region = %d/%d; model %d/%d", a, used, limit, m.used[a], m.limit[a])
		}
	}
	if st.Migrations != m.migrations || st.BytesMigrated != m.migrated {
		t.Fatalf("migrations = %d (%d B); model %d (%d B)", st.Migrations, st.BytesMigrated, m.migrations, m.migrated)
	}

	live, prev := 0, ObjID(0)
	st.each(func(id ObjID, o *object) {
		if id <= prev || m.objs[id] == nil {
			t.Fatalf("each visited %d after %d (model has it: %v)", id, prev, m.objs[id] != nil)
		}
		prev = id
		live++
	})
	if live != len(m.objs) {
		t.Fatalf("each visited %d objects; model has %d", live, len(m.objs))
	}
	for pi, p := range st.dir {
		if p == nil {
			continue
		}
		n := 0
		for i := range p.objs {
			if p.objs[i].live {
				n++
			} else if !blank(&p.objs[i]) {
				t.Fatalf("page %d slot %d is dead but not blank", pi, i)
			}
		}
		if n != p.live {
			t.Fatalf("page %d counts %d live, holds %d", pi, p.live, n)
		}
		if n == 0 && ObjID(pi) != st.nextID>>pageBits {
			t.Fatalf("page %d is empty and filled but still linked", pi)
		}
	}
	if len(st.spare) > maxSpare {
		t.Fatalf("%d spare pages, at most %d kept", len(st.spare), maxSpare)
	}
	for _, p := range st.spare {
		for i := range p.objs {
			if p.live != 0 || !blank(&p.objs[i]) {
				t.Fatal("a spare page is not blank")
			}
		}
	}
}

// blank: the slot is the zero value, holding on to no bytes.
func blank(o *object) bool {
	return o.data == nil && o.owner == 0 && o.side == 0 && !o.live
}

// linkedPages counts the pages the directory still names.
func linkedPages(s *Store) int {
	n := 0
	for _, p := range s.dir {
		if p != nil {
			n++
		}
	}
	return n
}

// TestStoreMatchesMapModel drives the page table and the map it replaced
// through the same ≥ 10⁵ seeded random operations across four actors and
// an unregistered fifth: same IDs, same errors, same bytes, same counts.
func TestStoreMatchesMapModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		data := make([]byte, 900_000)
		rand.New(rand.NewSource(seed)).Read(data)
		if steps := runOps(t, data); steps < 100_000 {
			t.Fatalf("seed %d: only %d steps", seed, steps)
		}
	}
}

// FuzzStoreOps: any byte string, read as table operations, leaves the
// page table and the map model in agreement.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 64, 0, 0, 7, 0xff, 0, 0, 2, 10, 4, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}

// TestIDsSequentialNeverReused: IDs count up from 1 whatever was freed in
// between, and a freed ID names nothing ever again — not while its page
// is still linked, not once the page has been unlinked, and not after
// that very page has been recycled and refilled with later IDs.
func TestIDsSequentialNeverReused(t *testing.T) {
	s := NewStore()
	s.Register(1, 1<<20)
	next := ObjID(1)
	alloc := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			id, err := s.Alloc(1, 1, NIC)
			if err != nil || id != next {
				t.Fatalf("Alloc = %d, %v; want ID %d", id, err, next)
			}
			s.Write(1, id, 0, []byte{byte(id)})
			next++
		}
	}
	gone := func(id ObjID) {
		t.Helper()
		if _, err := s.Read(1, id, 0, 1); err != ErrNoSuchObject {
			t.Fatalf("Read(%d) = %v, want ErrNoSuchObject", id, err)
		}
		if err := s.Free(1, id); err != ErrNoSuchObject {
			t.Fatalf("Free(%d) = %v, want ErrNoSuchObject", id, err)
		}
	}

	alloc(3*pageSize - 1) // IDs 1 … 3·pageSize-1: pages 0, 1 and 2 are full
	gone(0)
	gone(next)
	gone(1 << 40)

	// One freed ID on a page that stays linked.
	if err := s.Free(1, 7); err != nil {
		t.Fatal(err)
	}
	gone(7)

	// All of page 1: it is unlinked and becomes the spare page.
	old := s.dir[1]
	for id := ObjID(pageSize); id < 2*pageSize; id++ {
		if err := s.Free(1, id); err != nil {
			t.Fatal(err)
		}
	}
	if s.dir[1] != nil || len(s.spare) != 1 || s.spare[0] != old {
		t.Fatalf("page 1 after its last free: linked %v, %d spare", s.dir[1] != nil, len(s.spare))
	}
	gone(pageSize)
	gone(2*pageSize - 1)

	// Page 3 is that same memory, refilled with IDs 3·pageSize …: the IDs
	// of page 1 that shared its slots are still gone.
	alloc(pageSize)
	if s.dir[3] != old || len(s.spare) != 0 {
		t.Fatal("the spare page was not reused for the next page opened")
	}
	for id := ObjID(pageSize); id < 2*pageSize; id++ {
		gone(id)
	}
	for _, id := range []ObjID{1, pageSize - 1, 2 * pageSize, 3 * pageSize, next - 1} {
		if p, err := s.Read(1, id, 0, 1); err != nil || p[0] != byte(id) {
			t.Fatalf("Read(%d) = %v, %v: not the object allocated under that ID", id, p, err)
		}
	}
	if want := 3*pageSize - 1 - 1 - pageSize + pageSize; s.Objects() != want {
		t.Fatalf("Objects() = %d, want %d", s.Objects(), want)
	}
}

// TestPagesReclaimed: 10⁶ allocations with at most 1 000 objects live,
// oldest freed first. The live IDs are then 1 000 consecutive ones, which
// touch at most three pages, so no more than three pages are ever linked
// and no more than maxSpare wait to be reused; the directory, which never
// shrinks, has grown by exactly one 8-byte word per pageSize IDs.
func TestPagesReclaimed(t *testing.T) {
	const total, window = 1_000_000, 1000
	s := NewStore()
	s.Register(1, 1<<20)
	for i := 1; i <= total; i++ {
		id, err := s.Alloc(1, 8, NIC)
		if err != nil || id != ObjID(i) {
			t.Fatalf("Alloc %d = %d, %v", i, id, err)
		}
		if i > window {
			if err := s.Free(1, ObjID(i-window)); err != nil {
				t.Fatal(err)
			}
		}
		if i%1009 == 0 {
			if n := linkedPages(s); n > 3 {
				t.Fatalf("after %d allocations %d pages are linked, want ≤ 3", i, n)
			}
		}
	}
	if s.Objects() != window {
		t.Fatalf("Objects() = %d, want %d", s.Objects(), window)
	}
	if n := linkedPages(s); n > 3 {
		t.Fatalf("%d pages linked at the end, want ≤ 3", n)
	}
	if len(s.spare) > maxSpare {
		t.Fatalf("%d spare pages, want ≤ %d", len(s.spare), maxSpare)
	}
	if want := total>>pageBits + 1; len(s.dir) != want {
		t.Fatalf("directory has %d words after %d allocations, want %d", len(s.dir), total, want)
	}
	if used, _ := regionUse(s, 1); used != 8*window {
		t.Fatalf("region use = %d, want %d", used, 8*window)
	}
}

// TestZeroSizeObjects: an object of no bytes is an object — it has an ID,
// an owner and a side, counts in Objects, and frees once.
func TestZeroSizeObjects(t *testing.T) {
	s := NewStore()
	s.Register(1, 0) // a region of no bytes holds any number of them
	id, err := s.Alloc(1, 0, Host)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Size(1, id); err != nil || n != 0 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if p, err := s.Read(1, id, 0, 0); err != nil || len(p) != 0 {
		t.Fatalf("Read = %v, %v", p, err)
	}
	if _, err := s.Read(1, id, 0, 1); err != ErrBounds {
		t.Fatalf("Read past a zero-size object = %v, want ErrBounds", err)
	}
	if _, err := s.Size(2, id); err != ErrWrongActor {
		t.Fatalf("Size as another actor = %v, want ErrWrongActor", err)
	}
	if side, _ := sideOf(s, 1, id); side != Host || s.Objects() != 1 {
		t.Fatalf("side %v, %d objects", side, s.Objects())
	}
	if err := s.Free(1, id); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(1, id); err != ErrNoSuchObject || s.Objects() != 0 {
		t.Fatalf("second Free = %v, %d objects", err, s.Objects())
	}
}

// TestLookupAllocFree: resolving an ID — hit, miss, wrong owner — and
// every byte operation on the object it names allocate nothing.
func TestLookupAllocFree(t *testing.T) {
	s := NewStore()
	s.Register(1, 1<<20)
	var ids []ObjID
	for i := 0; i < 3*pageSize; i++ {
		id, _ := s.Alloc(1, 64, NIC)
		ids = append(ids, id)
	}
	p := make([]byte, 16)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		a, b := ids[i%len(ids)], ids[(i*7+1)%len(ids)]
		i++
		s.Read(1, a, 8, 16)
		s.Write(1, a, 8, p)
		s.Size(1, a)
		sideOf(s, 1, a)
		s.Memset(1, a, 0, 8, 1)
		s.Memmove(1, a, 0, 4, 8)
		s.Memcpy(1, a, 0, b, 0, 8)
		s.Read(2, a, 0, 1)     // wrong owner
		s.Read(1, 1<<30, 0, 1) // past the directory
		s.Read(1, 0, 0, 1)     // never issued
	})
	if allocs != 0 {
		t.Fatalf("lookups and byte operations allocate %v per run, want 0", allocs)
	}
}

// TestAllocOneAllocation: creating an object allocates its bytes and
// nothing else — no per-object record. A page is opened once per
// pageSize IDs and comes off the spare list when an earlier one has
// emptied, as it has here; the directory's rare regrowth is far below one
// allocation per run.
func TestAllocOneAllocation(t *testing.T) {
	s := NewStore()
	s.Register(1, 1<<20)
	for i := 0; i < 2*pageSize; i++ { // leave a spare page behind
		id, _ := s.Alloc(1, 64, NIC)
		s.Free(1, id)
	}
	allocs := testing.AllocsPerRun(4*pageSize, func() {
		id, err := s.Alloc(1, 64, NIC)
		if err != nil {
			t.Fatal(err)
		}
		s.Free(1, id)
	})
	if allocs != 1 {
		t.Fatalf("Alloc+Free allocates %v per run, want 1 (the object's bytes)", allocs)
	}
	if allocs := testing.AllocsPerRun(4*pageSize, func() {
		id, _ := s.Alloc(1, 0, NIC)
		s.Free(1, id)
	}); allocs != 0 {
		t.Fatalf("a zero-size Alloc+Free allocates %v per run, want 0", allocs)
	}
}
