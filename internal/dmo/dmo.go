// Package dmo implements iPipe's distributed memory object abstraction
// (§3.3). A DMO is a chunk of memory identified by an object ID rather
// than a pointer; actors index their data structures by object IDs so
// the runtime can relocate all of an actor's objects between NIC and
// host memory during migration without invalidating the actor's state.
//
// Invariants enforced here, straight from the paper:
//
//   - a DMO belongs to exactly one actor; no sharing across actors;
//   - at any time a DMO has exactly one copy, on the NIC or on the host;
//   - actors never read/write objects across the PCIe bus (remote access
//     is ~10x slower): the runtime moves objects with the actor instead;
//   - each registered actor draws from a fixed-size memory region; when
//     it consumes more than the framework provisioned, allocation fails.
//
// The object table is indexed by object ID, as §3.3's is (ID → address,
// size, owner). A directory, one pointer per pageSize IDs, names pages
// of pageSize inline object slots: resolving an ID is two index
// operations and a flag test, and creating an object allocates its bytes
// and nothing else (a page once per pageSize IDs, a directory word with
// it). IDs run from 1 and are never reused, so a page only ever fills
// once; when the last object of a filled page dies the page is unlinked
// from the directory — its word stays, nil — and kept on a short spare
// list for the next page the ID counter opens. The page the counter is
// still filling is never unlinked. Walks over the whole table
// (MigrateActor, ActorBytes, DestroyActor) go in ascending ID order, so
// anything they sum or emit is the same on every run.
package dmo

import (
	"errors"
	"fmt"

	"repro/internal/invariant"
)

// ObjID names a distributed memory object. IDs are unique per deployment
// side-pair (allocated by the Store), never reused.
type ObjID = uint64

// Side identifies which memory holds an object's single copy.
type Side uint8

// The two execution zones.
const (
	NIC Side = iota
	Host
)

// String renders the side.
func (s Side) String() string {
	if s == NIC {
		return "NIC"
	}
	return "Host"
}

// Error values surfaced to actors.
var (
	ErrNoSuchObject    = errors.New("dmo: no such object")
	ErrWrongActor      = errors.New("dmo: object owned by another actor")
	ErrRegionExhausted = errors.New("dmo: actor memory region exhausted")
	ErrBounds          = errors.New("dmo: access out of object bounds")
	ErrNoRegion        = errors.New("dmo: actor has no registered region")
)

// object is one slot of the table. A slot whose ID was never handed out,
// or whose object was freed, is the zero value.
type object struct {
	data  []byte
	owner uint32
	side  Side
	live  bool
}

// The table's geometry: object id lives in slot id&pageMask of page
// id>>pageBits.
const (
	pageBits = 9
	pageSize = 1 << pageBits
	pageMask = pageSize - 1

	// maxSpare bounds the emptied pages kept for reuse; more than that
	// go back to the garbage collector.
	maxSpare = 4
)

// page holds the slots of pageSize consecutive IDs and how many of them
// are live.
type page struct {
	objs [pageSize]object
	live int
}

type region struct {
	limit int
	used  int
}

// Store is the object table plus region allocator for one node. Both the
// NIC-side and host-side tables of the paper are views into one Store,
// distinguished by each object's Side; this mirrors the paper's paired
// iPipe-host / iPipe-NIC object tables while keeping migration atomic.
type Store struct {
	// dir[i] is the page of IDs [i<<pageBits, (i+1)<<pageBits): nil once
	// every one of them has been handed out and freed. It grows by one
	// word per page opened and never shrinks.
	dir []*page
	// spare holds unlinked pages, every slot zero, at most maxSpare.
	spare   []*page
	live    int // objects in the table
	regions map[uint32]*region
	nextID  ObjID

	// chk/chkLabel: the invariant checker shadows region byte accounting
	// (alloc = free + live, never over limit); nil = disabled.
	chk      *invariant.Checker
	chkLabel string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{regions: map[uint32]*region{}, nextID: 1}
}

// Observe attaches the byte-accounting checker (nil: checking off);
// label names this store (the node) in reports. Attach before the first
// Alloc or the shadow counts start behind the real ones.
func (s *Store) Observe(chk *invariant.Checker, label string) {
	s.chk, s.chkLabel = chk, label
}

// Register provisions an actor's memory region of limit bytes. On the
// LiquidIO cards this is carved from the firmware's global bootmem
// region at init time (§3.3). Re-registering resizes the limit.
func (s *Store) Register(actor uint32, limit int) {
	if r, ok := s.regions[actor]; ok {
		r.limit = limit
		return
	}
	s.regions[actor] = &region{limit: limit}
}

// Alloc creates an object of size bytes for the actor on the given side.
func (s *Store) Alloc(actor uint32, size int, side Side) (ObjID, error) {
	if size < 0 {
		return 0, fmt.Errorf("dmo: negative size %d", size)
	}
	r, ok := s.regions[actor]
	if !ok {
		return 0, ErrNoRegion
	}
	if r.used+size > r.limit {
		return 0, ErrRegionExhausted
	}
	r.used += size
	id := s.nextID
	s.nextID++
	pi := int(id >> pageBits)
	if pi == len(s.dir) {
		s.dir = append(s.dir, s.openPage())
	}
	p := s.dir[pi] // the page being filled is never unlinked
	p.objs[id&pageMask] = object{data: make([]byte, size), owner: actor, side: side, live: true}
	p.live++
	s.live++
	s.chk.DMOAlloc(s.chkLabel, actor, size, r.used, r.limit)
	return id, nil
}

// openPage returns an all-zero page: a spare one if there is one.
func (s *Store) openPage() *page {
	if n := len(s.spare); n > 0 {
		p := s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		return p
	}
	return new(page)
}

// release zeroes the slot of a live object, dropping its bytes, and
// unlinks the page if that was its last object and the ID counter has
// moved past it.
func (s *Store) release(id ObjID, o *object) {
	*o = object{}
	s.live--
	pi := id >> pageBits
	p := s.dir[pi]
	p.live--
	if p.live > 0 || pi == s.nextID>>pageBits {
		return
	}
	s.dir[pi] = nil
	if len(s.spare) < maxSpare {
		s.spare = append(s.spare, p)
	}
}

// each calls fn for every live object in ascending ID order. fn may
// release the object it is handed and no other.
func (s *Store) each(fn func(id ObjID, o *object)) {
	for pi, p := range s.dir {
		if p == nil {
			continue
		}
		for i, left := 0, p.live; left > 0; i++ {
			if o := &p.objs[i]; o.live {
				left--
				fn(ObjID(pi)<<pageBits|ObjID(i), o)
			}
		}
	}
}

// lookup fetches an object enforcing ownership. The ownership check is
// the software analogue of the TLB trap of §3.4: an actor touching
// another actor's region gets an error, never the data.
func (s *Store) lookup(actor uint32, id ObjID) (*object, error) {
	pi := id >> pageBits
	if pi >= uint64(len(s.dir)) {
		return nil, ErrNoSuchObject
	}
	p := s.dir[pi]
	if p == nil {
		return nil, ErrNoSuchObject
	}
	o := &p.objs[id&pageMask]
	if !o.live {
		return nil, ErrNoSuchObject
	}
	if o.owner != actor {
		return nil, ErrWrongActor
	}
	return o, nil
}

// Free releases an object and returns its bytes to the actor's region.
func (s *Store) Free(actor uint32, id ObjID) error {
	o, err := s.lookup(actor, id)
	if err != nil {
		return err
	}
	n := len(o.data)
	r := s.regions[actor]
	r.used -= n
	s.release(id, o)
	s.chk.DMOFree(s.chkLabel, actor, n, r.used)
	return nil
}

// Size returns an object's size.
func (s *Store) Size(actor uint32, id ObjID) (int, error) {
	o, err := s.lookup(actor, id)
	if err != nil {
		return 0, err
	}
	return len(o.data), nil
}

// Read returns the n bytes at offset off as a view into the object —
// the addressed read of Table 4, not a copy-out. The view's capacity
// ends where it does, so it cannot be grown into the neighbouring bytes.
// It is a borrow: it aliases the object's single copy, so it is good
// until the object is next written, moved over itself or freed, and the
// caller must not write through it (Write is the way in, and the only
// one the byte accounting sees). A caller that keeps the bytes copies
// them.
func (s *Store) Read(actor uint32, id ObjID, off, n int) ([]byte, error) {
	o, err := s.lookup(actor, id)
	if err != nil {
		return nil, err
	}
	if off < 0 || n < 0 || off+n > len(o.data) {
		return nil, ErrBounds
	}
	return o.data[off : off+n : off+n], nil
}

// Write copies p into the object at offset off.
func (s *Store) Write(actor uint32, id ObjID, off int, p []byte) error {
	o, err := s.lookup(actor, id)
	if err != nil {
		return err
	}
	if off < 0 || off+len(p) > len(o.data) {
		return ErrBounds
	}
	copy(o.data[off:], p)
	return nil
}

// MigrateActor moves every object the actor owns to the target side and
// returns the total bytes moved (the dominant cost of migration phase 3,
// Figure 18). Objects already on the target side are untouched.
func (s *Store) MigrateActor(actor uint32, to Side) (bytes int) {
	s.each(func(_ ObjID, o *object) {
		if o.owner != actor || o.side == to {
			return
		}
		o.side = to
		bytes += len(o.data)
	})
	return bytes
}

// MigrateObject moves a single object (dmo_migrate of Table 4).
func (s *Store) MigrateObject(actor uint32, id ObjID, to Side) (int, error) {
	o, err := s.lookup(actor, id)
	if err != nil {
		return 0, err
	}
	if o.side == to {
		return 0, nil
	}
	o.side = to
	return len(o.data), nil
}

// ActorBytes returns the total object bytes an actor holds on each side.
func (s *Store) ActorBytes(actor uint32) (nic, host int) {
	s.each(func(_ ObjID, o *object) {
		if o.owner != actor {
			return
		}
		if o.side == NIC {
			nic += len(o.data)
		} else {
			host += len(o.data)
		}
	})
	return nic, host
}

// DestroyActor frees every object and the region of a deregistered
// actor (the DoS watchdog uses this, §3.4).
func (s *Store) DestroyActor(actor uint32) {
	freed := 0
	s.each(func(id ObjID, o *object) {
		if o.owner == actor {
			freed += len(o.data)
			s.release(id, o)
		}
	})
	delete(s.regions, actor)
	s.chk.DMODestroy(s.chkLabel, actor, freed)
}

// Objects reports the live object count (tests and leak checks).
func (s *Store) Objects() int { return s.live }
