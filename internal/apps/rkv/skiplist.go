// Package rkv is the replicated key-value store of §4: Multi-Paxos
// consensus over an LSM-tree store. Four actor kinds implement it — a
// consensus actor (leader/follower Paxos roles), an LSM Memtable actor
// whose skip list is built from distributed memory objects exactly as
// in Figure 12-b, an SSTable read actor, and a compaction actor (the
// latter two pinned to the host, where persistent storage lives).
package rkv

import (
	"bytes"
	"encoding/binary"

	"repro/internal/actor"
	"repro/internal/sim"
)

// keyLen is the fixed key size (16B keys, §5.1).
const keyLen = 16

// maxLevel bounds skip-list towers.
const maxLevel = 12

// Skip-list node layout inside a DMO (Figure 12-b: "the key field is
// the same, but value and forwarding pointers are replaced by object
// IDs"):
//
//	key     [keyLen]byte
//	valObj  uint64   // object ID of the value object; 0 = tombstone
//	valLen  uint32   // value size in bytes
//	level   uint8
//	forward [level]uint64 // object IDs of successor nodes; 0 = nil
const nodeHdr = keyLen + 8 + 4 + 1

func nodeSize(level int) int { return nodeHdr + 8*level }

// skipList is an LSM Memtable index whose nodes live in DMOs and are
// linked by object IDs, so the runtime can migrate the whole structure
// between NIC and host without rewriting a single link.
type skipList struct {
	head  uint64 // object ID of the head sentinel
	level int    // current max level in use
	count int
	bytes int // application bytes (keys + values) resident
	rng   uint64

	// visits counts node hops of the last operation (drives the cost
	// model: each hop is an object-table lookup plus a cache miss).
	visits int

	// scratch is where a node header, value reference or forward link is
	// encoded on its way into ObjWrite, which copies it: a stack array
	// would escape through the actor.Ctx interface on every call.
	scratch [nodeHdr]byte
}

// newSkipList allocates the head sentinel through the context.
func newSkipList(ctx actor.Ctx) (*skipList, error) {
	s := &skipList{level: 1, rng: 0x9e3779b97f4a7c15}
	head, err := ctx.Alloc(nodeSize(maxLevel))
	if err != nil {
		return nil, err
	}
	s.head = head
	s.scratch[keyLen+12] = maxLevel
	if err := ctx.ObjWrite(head, 0, s.scratch[:]); err != nil {
		return nil, err
	}
	return s, nil
}

// Count returns live entries (including tombstones).
func (s *skipList) Count() int { return s.count }

func (s *skipList) randLevel() int {
	// xorshift64*; each coin flip promotes with p=1/4 as in LevelDB.
	lvl := 1
	for lvl < maxLevel {
		s.rng ^= s.rng >> 12
		s.rng ^= s.rng << 25
		s.rng ^= s.rng >> 27
		if (s.rng*0x2545f4914f6cdd1d)>>62 != 0 {
			break
		}
		lvl++
	}
	return lvl
}

// nodeKey reads a node's key: an ObjRead view, for comparing on the
// spot.
func (s *skipList) nodeKey(ctx actor.Ctx, obj uint64) ([]byte, error) {
	s.visits++
	return ctx.ObjRead(obj, 0, keyLen)
}

// nodeVal reads a node's (value object ID, value length).
func (s *skipList) nodeVal(ctx actor.Ctx, obj uint64) (uint64, int, error) {
	p, err := ctx.ObjRead(obj, keyLen, 12)
	if err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint64(p), int(binary.LittleEndian.Uint32(p[8:])), nil
}

func (s *skipList) setVal(ctx actor.Ctx, obj, val uint64, n int) error {
	b := s.scratch[:12]
	binary.LittleEndian.PutUint64(b, val)
	binary.LittleEndian.PutUint32(b[8:], uint32(n))
	return ctx.ObjWrite(obj, keyLen, b)
}

// forward reads node.forward[i].
func (s *skipList) forward(ctx actor.Ctx, obj uint64, i int) (uint64, error) {
	p, err := ctx.ObjRead(obj, nodeHdr+8*i, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

func (s *skipList) setForward(ctx actor.Ctx, obj uint64, i int, v uint64) error {
	b := s.scratch[:8]
	binary.LittleEndian.PutUint64(b, v)
	return ctx.ObjWrite(obj, nodeHdr+8*i, b)
}

// padKey zero-pads (or truncates) k to keyLen in the caller's array.
func padKey(dst *[keyLen]byte, k []byte) []byte {
	*dst = [keyLen]byte{}
	copy(dst[:], k)
	return dst[:]
}

// findPredecessors walks the list, filling update[] with the last node
// at each level whose key < k.
func (s *skipList) findPredecessors(ctx actor.Ctx, k []byte, update *[maxLevel]uint64) (uint64, error) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for {
			nxt, err := s.forward(ctx, x, i)
			if err != nil {
				return 0, err
			}
			if nxt == 0 {
				break
			}
			nk, err := s.nodeKey(ctx, nxt)
			if err != nil {
				return 0, err
			}
			if bytes.Compare(nk, k) < 0 {
				x = nxt
				continue
			}
			break
		}
		update[i] = x
	}
	return s.forward(ctx, x, 0)
}

// put inserts or overwrites a key. A nil value writes a tombstone
// (deletions are insertions with a deletion marker, §4).
func (s *skipList) put(ctx actor.Ctx, key, value []byte) error {
	s.visits = 0
	var kbuf [keyLen]byte
	k := padKey(&kbuf, key)
	var update [maxLevel]uint64
	cand, err := s.findPredecessors(ctx, k, &update)
	if err != nil {
		return err
	}
	if cand != 0 {
		ck, err := s.nodeKey(ctx, cand)
		if err != nil {
			return err
		}
		if bytes.Equal(ck, k) {
			// Overwrite: free the old value object, attach the new one.
			old, oldLen, err := s.nodeVal(ctx, cand)
			if err != nil {
				return err
			}
			if old != 0 {
				s.bytes -= oldLen
				ctx.Free(old)
			}
			vo, n, err := s.allocValue(ctx, value)
			if err != nil {
				// The node must not keep the ID just freed: the key reads
				// as deleted until it is next put.
				s.setVal(ctx, cand, 0, 0)
				return err
			}
			s.bytes += n
			return s.setVal(ctx, cand, vo, n)
		}
	}
	lvl := s.randLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = s.head
		}
		s.level = lvl
	}
	node, err := ctx.Alloc(nodeSize(lvl))
	if err != nil {
		return err
	}
	vo, vn, err := s.allocValue(ctx, value)
	if err != nil {
		ctx.Free(node) // not linked yet
		return err
	}
	hdr := s.scratch[:]
	copy(hdr, k)
	binary.LittleEndian.PutUint64(hdr[keyLen:], vo)
	binary.LittleEndian.PutUint32(hdr[keyLen+8:], uint32(vn))
	hdr[keyLen+12] = byte(lvl)
	if err := ctx.ObjWrite(node, 0, hdr); err != nil {
		return err
	}
	for i := 0; i < lvl; i++ {
		nxt, err := s.forward(ctx, update[i], i)
		if err != nil {
			return err
		}
		if err := s.setForward(ctx, node, i, nxt); err != nil {
			return err
		}
		if err := s.setForward(ctx, update[i], i, node); err != nil {
			return err
		}
	}
	s.count++
	s.bytes += keyLen + vn
	return nil
}

// allocValue stores a value in its own object; nil values (tombstones)
// use object ID 0.
func (s *skipList) allocValue(ctx actor.Ctx, value []byte) (uint64, int, error) {
	if value == nil {
		return 0, 0, nil
	}
	vo, err := ctx.Alloc(len(value))
	if err != nil {
		return 0, 0, err
	}
	if err := ctx.ObjWrite(vo, 0, value); err != nil {
		return 0, 0, err
	}
	return vo, len(value), nil
}

// get returns (value, found, tombstone).
func (s *skipList) get(ctx actor.Ctx, key []byte) ([]byte, bool, bool, error) {
	s.visits = 0
	var kbuf [keyLen]byte
	k := padKey(&kbuf, key)
	var update [maxLevel]uint64
	cand, err := s.findPredecessors(ctx, k, &update)
	if err != nil {
		return nil, false, false, err
	}
	if cand == 0 {
		return nil, false, false, nil
	}
	ck, err := s.nodeKey(ctx, cand)
	if err != nil {
		return nil, false, false, err
	}
	if !bytes.Equal(ck, k) {
		return nil, false, false, nil
	}
	vo, n, err := s.nodeVal(ctx, cand)
	if err != nil {
		return nil, false, false, err
	}
	if vo == 0 {
		return nil, true, true, nil
	}
	v, err := ctx.ObjRead(vo, 0, n)
	// The value outlives the handler (it travels in the reply), the
	// ObjRead view does not.
	return bytes.Clone(v), true, false, err
}

// entry is one key/value pair; tombstone marks deletion.
type entry struct {
	key       []byte
	value     []byte
	tombstone bool
}

// drain iterates all entries in key order, frees every node and value
// object, and resets the list (minor compaction hands the contents to
// the compaction actor).
func (s *skipList) drain(ctx actor.Ctx) ([]entry, error) {
	out := make([]entry, 0, s.count)
	x, err := s.forward(ctx, s.head, 0)
	if err != nil {
		return nil, err
	}
	for x != 0 {
		k, err := s.nodeKey(ctx, x)
		if err != nil {
			return nil, err
		}
		vo, n, err := s.nodeVal(ctx, x)
		if err != nil {
			return nil, err
		}
		e := entry{key: append([]byte(nil), k...)}
		if vo == 0 {
			e.tombstone = true
		} else {
			v, err := ctx.ObjRead(vo, 0, n)
			if err != nil {
				return nil, err
			}
			e.value = bytes.Clone(v) // the view dies with the object
			ctx.Free(vo)
		}
		out = append(out, e)
		nxt, err := s.forward(ctx, x, 0)
		if err != nil {
			return nil, err
		}
		ctx.Free(x)
		x = nxt
	}
	// Reset head forwards.
	for i := 0; i < maxLevel; i++ {
		if err := s.setForward(ctx, s.head, i, 0); err != nil {
			return nil, err
		}
	}
	s.level = 1
	s.count = 0
	s.bytes = 0
	return out, nil
}

// visitCost converts the last operation's node hops into reference-core
// time: each hop is an object-table lookup plus an L2/DRAM touch.
func (s *skipList) visitCost() sim.Time {
	return sim.Time(300 + 220*s.visits)
}
