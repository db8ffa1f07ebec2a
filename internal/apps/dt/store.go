// Package dt is the distributed transaction system of §4: optimistic
// concurrency control with two-phase commit, following FaSST/TAPIR-style
// designs. A coordinator actor drives the four-phase protocol (read and
// lock, validate, log, commit) against participant actors that store
// versioned records in an extensible hash table; a logging actor pinned
// to the host persists the coordinator log.
package dt

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"

	"repro/internal/sim"
)

// Record is a versioned, lockable value. LockedAt stamps lock
// acquisition so participants can expire locks whose owning coordinator
// died mid-2PC (see DefaultLockLease). Value belongs to the store: a
// commit rewrites it in place.
type Record struct {
	Value    []byte
	Version  uint64
	Locked   bool
	LockedAt sim.Time
}

// bucketCap is the extensible hash table's bucket capacity; overflowing
// a bucket splits it (doubling the directory when local depth reaches
// global depth).
const bucketCap = 4

type bucket struct {
	localDepth uint8
	keys       [][]byte
	recs       []*Record
}

// Store is an extensible (extendible) hash table of versioned records —
// the participant data store of §4.
type Store struct {
	globalDepth uint8
	dir         []*bucket

	// Splits counts bucket splits; Doublings directory doublings.
	Splits    uint64
	Doublings uint64
}

// NewStore returns an empty table with a depth-1 directory.
func NewStore() *Store {
	b0, b1 := &bucket{localDepth: 1}, &bucket{localDepth: 1}
	return &Store{globalDepth: 1, dir: []*bucket{b0, b1}}
}

func hashKey(k []byte) uint64 {
	h := fnv.New64a()
	h.Write(k)
	return h.Sum64()
}

func (s *Store) bucketFor(k []byte) *bucket {
	idx := hashKey(k) & ((1 << s.globalDepth) - 1)
	return s.dir[idx]
}

// Get returns the record for a key, or nil.
func (s *Store) Get(k []byte) *Record {
	b := s.bucketFor(k)
	for i, bk := range b.keys {
		if bytes.Equal(bk, k) {
			return b.recs[i]
		}
	}
	return nil
}

// Put inserts or replaces a record (splitting buckets as needed).
func (s *Store) Put(k []byte, r *Record) {
	for {
		b := s.bucketFor(k)
		for i, bk := range b.keys {
			if bytes.Equal(bk, k) {
				b.recs[i] = r
				return
			}
		}
		if len(b.keys) < bucketCap {
			b.keys = append(b.keys, append([]byte(nil), k...))
			b.recs = append(b.recs, r)
			return
		}
		s.split(b)
	}
}

// split divides an overflowing bucket, doubling the directory if its
// local depth has caught up with the global depth.
func (s *Store) split(b *bucket) {
	if b.localDepth == s.globalDepth {
		// Double the directory.
		nd := make([]*bucket, len(s.dir)*2)
		copy(nd, s.dir)
		copy(nd[len(s.dir):], s.dir)
		s.dir = nd
		s.globalDepth++
		s.Doublings++
	}
	b.localDepth++
	nb := &bucket{localDepth: b.localDepth}
	bit := uint64(1) << (b.localDepth - 1)
	keep := b.keys[:0]
	keepR := b.recs[:0]
	for i, k := range b.keys {
		if hashKey(k)&bit != 0 {
			nb.keys = append(nb.keys, k)
			nb.recs = append(nb.recs, b.recs[i])
		} else {
			keep = append(keep, k)
			keepR = append(keepR, b.recs[i])
		}
	}
	b.keys, b.recs = keep, keepR
	// Rewire directory entries that should now point at the new bucket.
	for i := range s.dir {
		if s.dir[i] == b && uint64(i)&bit != 0 {
			s.dir[i] = nb
		}
	}
	s.Splits++
}

// Len counts stored records.
func (s *Store) Len() int {
	seen := map[*bucket]bool{}
	n := 0
	for _, b := range s.dir {
		if !seen[b] {
			seen[b] = true
			n += len(b.keys)
		}
	}
	return n
}

// Locks counts records whose lock is live at time now under the given
// lease (lease ≤ 0 counts every set lock flag, expired or not). The
// recovery invariant after coordinator/participant failures is that
// this reaches zero once in-flight transactions resolve.
func (s *Store) Locks(now, lease sim.Time) int {
	seen := map[*bucket]bool{}
	n := 0
	for _, b := range s.dir {
		if !seen[b] {
			seen[b] = true
			for _, r := range b.recs {
				if lockHeld(r, now, lease) {
					n++
				}
			}
		}
	}
	return n
}

// Depths reports (global, max local) depths for invariant checks.
func (s *Store) Depths() (uint8, uint8) {
	var maxLocal uint8
	seen := map[*bucket]bool{}
	for _, b := range s.dir {
		if !seen[b] {
			seen[b] = true
			if b.localDepth > maxLocal {
				maxLocal = b.localDepth
			}
		}
	}
	return s.globalDepth, maxLocal
}

// --- wire encoding ---------------------------------------------------

// Op is one transaction operation.
type Op struct {
	Key   []byte
	Value []byte // nil for reads
}

// Txn is a client transaction: a read set and a write set.
type Txn struct {
	Reads  []Op
	Writes []Op
}

// EncodeTxn serializes a transaction for the client request payload.
// A key is at most 255 bytes; a read's Value is not sent.
func EncodeTxn(t Txn) []byte {
	w := make(wbuf, 0, 2+keysLen(t.Reads)+2+pairsLen(t.Writes))
	w.u16(len(t.Reads))
	for _, op := range t.Reads {
		w.blob(op.Key)
	}
	w.u16(len(t.Writes))
	for _, op := range t.Writes {
		w.blob(op.Key)
		w.blob16(op.Value)
	}
	return w
}

// decodeTxnInto parses a transaction payload into t, reusing t's
// slices. It borrows p: every key and value is a view of p, capacity
// equal to length, so t is valid for as long as p is never rewritten
// (actor.Msg.Data). ok is false on malformed input — a hostile client
// must not crash the coordinator — and t is then empty.
func decodeTxnInto(p []byte, t *Txn) bool {
	readOps := func(ops []Op, withVal bool) ([]Op, bool) {
		if len(p) < 2 {
			return ops, false
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		for i := 0; i < n; i++ {
			if len(p) < 1 {
				return ops, false
			}
			kl := int(p[0])
			p = p[1:]
			if len(p) < kl {
				return ops, false
			}
			op := Op{Key: p[:kl:kl]}
			p = p[kl:]
			if withVal {
				if len(p) < 2 {
					return ops, false
				}
				vl := int(binary.LittleEndian.Uint16(p))
				p = p[2:]
				if len(p) < vl {
					return ops, false
				}
				op.Value = p[:vl:vl]
				p = p[vl:]
			}
			ops = append(ops, op)
		}
		return ops, true
	}
	var ok bool
	if t.Reads, ok = readOps(t.Reads[:0], false); ok {
		t.Writes, ok = readOps(t.Writes[:0], true)
	}
	if !ok {
		t.Reads, t.Writes = t.Reads[:0], t.Writes[:0]
	}
	return ok
}
