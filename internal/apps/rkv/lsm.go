package rkv

import (
	"bytes"
	"encoding/binary"
	"sort"

	"repro/internal/actor"
	"repro/internal/sim"
)

// Message kinds of the RKV application.
const (
	// KindReq is the client request (encodeCmd payload).
	KindReq actor.Kind = iota + 32
	// kindGet asks the Memtable (or SSTable reader) for a key.
	kindGet
	// kindApply installs a committed write into the Memtable.
	kindApply
	// kindMinorCompact ships a drained Memtable to the compaction actor.
	kindMinorCompact
	// kindAccept / kindAccepted / kindLearn are Multi-Paxos phase-2/3
	// messages; kindPrepare / kindPromise drive leader election.
	kindAccept
	kindAccepted
	kindLearn
	kindPrepare
	kindPromise
	// KindElect tells a replica to run for leader (sent by an operator
	// or failure detector when the old leader dies).
	KindElect
)

// Op codes inside commands.
const (
	opGet byte = iota + 1
	opPut
	opDel
)

// Status is the response status code (first byte of the client
// response). A typed code keeps RKV statuses out of the shared byte
// namespace of the other applications' outcomes.
type Status byte

// Response status codes.
const (
	StatusOK       Status = 1
	StatusNotFound Status = 2
	StatusRedirect Status = 3 // not the leader
)

// String names the status for logs and experiment output.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusRedirect:
		return "redirect"
	}
	return "invalid"
}

// StatusOf extracts the status from a client response payload.
func StatusOf(p []byte) Status {
	if len(p) == 0 {
		return 0
	}
	return Status(p[0])
}

// command is one key-value command. A command that decodeCmd returned borrows
// its Key and Value from the decoded buffer.
type command struct {
	Op    byte
	Key   []byte
	Value []byte
}

// encodeCmd serializes a command.
func encodeCmd(c command) []byte {
	out := make([]byte, 0, 1+1+len(c.Key)+2+len(c.Value))
	out = append(out, c.Op, byte(len(c.Key)))
	out = append(out, c.Key...)
	var vl [2]byte
	binary.LittleEndian.PutUint16(vl[:], uint16(len(c.Value)))
	out = append(out, vl[:]...)
	out = append(out, c.Value...)
	return out
}

// decodeCmd parses a command; ok is false on malformed input. Key and
// Value are views into p, not copies — a borrow like ObjRead's: they are
// good for as long as p is (a handler decoding m.Data: until it returns),
// their capacity ends where they do, and a caller that keeps either
// copies it. An empty field decodes as nil.
func decodeCmd(p []byte) (command, bool) {
	if len(p) < 4 {
		return command{}, false
	}
	c := command{Op: p[0]}
	kl := int(p[1])
	p = p[2:]
	if len(p) < kl+2 {
		return command{}, false
	}
	if kl > 0 {
		c.Key = p[:kl:kl]
	}
	p = p[kl:]
	vl := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) < vl {
		return command{}, false
	}
	if vl > 0 {
		c.Value = p[:vl:vl]
	}
	return c, true
}

// encodeEntries / decodeEntries serialize Memtable drains for the
// minor-compaction message.
func encodeEntries(es []Entry) []byte {
	n := 0
	for _, e := range es {
		n += 1 + len(e.Key) + 1
		if !e.Tombstone {
			n += 4 + len(e.Value)
		}
	}
	out := make([]byte, 0, n)
	for _, e := range es {
		out = append(out, byte(len(e.Key)))
		out = append(out, e.Key...)
		if e.Tombstone {
			out = append(out, 1)
			continue
		}
		out = append(out, 0)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e.Value)))
		out = append(out, e.Value...)
	}
	return out
}

// decodeEntries parses a minor-compaction payload.
func decodeEntries(p []byte) []Entry {
	var out []Entry
	for len(p) >= 2 {
		kl := int(p[0])
		p = p[1:]
		if len(p) < kl+1 {
			break
		}
		e := Entry{Key: append([]byte(nil), p[:kl]...)}
		p = p[kl:]
		tomb := p[0]
		p = p[1:]
		if tomb == 1 {
			e.Tombstone = true
			out = append(out, e)
			continue
		}
		if len(p) < 4 {
			break
		}
		vl := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if len(p) < vl {
			break
		}
		e.Value = append([]byte(nil), p[:vl]...)
		p = p[vl:]
		out = append(out, e)
	}
	return out
}

// --- SSTables ---------------------------------------------------------

// Run is a sorted, deduplicated sequence of entries.
type Run []Entry

// SSTStore is the on-disk level structure shared by the SSTable read
// actor and the compaction actor. In the paper both actors live on the
// host because they need the persistent store; the disk — not memory —
// is the shared substrate, so sharing this struct between exactly those
// two actors preserves the no-shared-memory actor rule in spirit.
type SSTStore struct {
	// Levels[i] holds the runs of level i, newest first. Level limits
	// grow exponentially (×10 per level, as in LevelDB).
	Levels [][]Run
	// BaseLimit is level 1's byte limit; level i allows BaseLimit·10^(i-1).
	BaseLimit int
	// L0Runs bounds level 0 by run count.
	L0Runs int

	// MinorCompactions/MajorCompactions count events.
	MinorCompactions uint64
	MajorCompactions uint64
}

// NewSSTStore builds an empty store.
func NewSSTStore(baseLimit int) *SSTStore {
	if baseLimit <= 0 {
		baseLimit = 4 << 20
	}
	return &SSTStore{BaseLimit: baseLimit, L0Runs: 4}
}

func runBytes(r Run) int {
	n := 0
	for _, e := range r {
		n += len(e.Key) + len(e.Value)
	}
	return n
}

func levelBytes(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += runBytes(r)
	}
	return n
}

// AddL0 installs a new level-0 run (a drained Memtable) and performs
// any cascading major compactions. It returns the bytes rewritten,
// which the compaction actor charges as work.
func (s *SSTStore) AddL0(entries []Entry) int {
	run := normalizeRun(entries)
	if len(s.Levels) == 0 {
		s.Levels = append(s.Levels, nil)
	}
	s.Levels[0] = append([]Run{run}, s.Levels[0]...)
	s.MinorCompactions++
	rewritten := 0
	// Cascade: compact level i into i+1 while over limit.
	for i := 0; i < len(s.Levels); i++ {
		over := false
		if i == 0 {
			over = len(s.Levels[0]) > s.L0Runs
		} else {
			limit := s.BaseLimit
			for k := 1; k < i; k++ {
				limit *= 10
			}
			over = levelBytes(s.Levels[i]) > limit
		}
		if !over {
			continue
		}
		if i+1 >= len(s.Levels) {
			s.Levels = append(s.Levels, nil)
		}
		// Merge all runs of level i and i+1 into one run at i+1.
		var all []Run
		all = append(all, s.Levels[i]...)
		all = append(all, s.Levels[i+1]...)
		merged := mergeRuns(all, i+2 == len(s.Levels))
		rewritten += runBytes(merged)
		s.Levels[i] = nil
		s.Levels[i+1] = []Run{merged}
		s.MajorCompactions++
	}
	return rewritten
}

// normalizeRun sorts entries and keeps the last occurrence of each key.
func normalizeRun(entries []Entry) Run {
	sort.SliceStable(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].Key, entries[j].Key) < 0
	})
	out := entries[:0]
	for i := 0; i < len(entries); i++ {
		if i+1 < len(entries) && bytes.Equal(entries[i].Key, entries[i+1].Key) {
			continue // a newer duplicate follows
		}
		out = append(out, entries[i])
	}
	return Run(append([]Entry(nil), out...))
}

// mergeRuns k-way merges runs (earlier runs are newer and win ties).
// When bottom is true, tombstones are dropped.
func mergeRuns(runs []Run, bottom bool) Run {
	var out Run
	seen := map[string]bool{}
	type cursor struct {
		run Run
		pos int
	}
	cursors := make([]cursor, len(runs))
	for i, r := range runs {
		cursors[i] = cursor{run: r}
	}
	for {
		best := -1
		var bestKey []byte
		for i := range cursors {
			c := &cursors[i]
			if c.pos >= len(c.run) {
				continue
			}
			k := c.run[c.pos].Key
			if best == -1 || bytes.Compare(k, bestKey) < 0 {
				best, bestKey = i, k
			}
		}
		if best == -1 {
			break
		}
		e := cursors[best].run[cursors[best].pos]
		cursors[best].pos++
		if seen[string(e.Key)] {
			continue
		}
		seen[string(e.Key)] = true
		if bottom && e.Tombstone {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Lookup searches the levels newest-first.
func (s *SSTStore) Lookup(key []byte) ([]byte, bool) {
	var kbuf [keyLen]byte
	k := padKey(&kbuf, key)
	for _, runs := range s.Levels {
		for _, r := range runs {
			i := sort.Search(len(r), func(i int) bool {
				return bytes.Compare(r[i].Key, k) >= 0
			})
			if i < len(r) && bytes.Equal(r[i].Key, k) {
				if r[i].Tombstone {
					return nil, false
				}
				return r[i].Value, true
			}
		}
	}
	return nil, false
}

// --- Memtable actor -----------------------------------------------------

// Memtable is the LSM Memtable actor state.
type Memtable struct {
	Actor *actor.Actor

	list  *skipList
	limit int
	// sstReader / compactor are the host-pinned actors.
	sstReader actor.ID
	compactor actor.ID

	// Compactions counts minor compactions issued.
	Compactions uint64
	// Hits/Misses count read outcomes served from the Memtable.
	Hits, Misses uint64
	// PutErrors counts committed writes the skip list refused (the
	// actor's DMO region was exhausted): the write is lost here.
	PutErrors uint64
}

// NewMemtable builds the Memtable actor. limitBytes triggers minor
// compaction (the paper used Memtables around 32MB; tests use less).
func NewMemtable(id actor.ID, limitBytes int, sstReader, compactor actor.ID) *Memtable {
	mt := &Memtable{limit: limitBytes, sstReader: sstReader, compactor: compactor}
	a := &actor.Actor{
		ID:        id,
		Name:      "rkv-memtable",
		Exclusive: true,
		MemBound:  0.4, // skip-list pointer chasing
	}
	a.OnInit = func(ctx actor.Ctx) {
		mt.list, _ = newSkipList(ctx)
	}
	a.OnMessage = func(ctx actor.Ctx, m actor.Msg) sim.Time {
		switch m.Kind {
		case kindApply:
			cmd, ok := decodeCmd(m.Data)
			if !ok {
				return 300 * sim.Nanosecond
			}
			var val []byte
			if cmd.Op == opPut {
				val = cmd.Value
			} // opDel: nil value = tombstone
			if err := mt.list.Put(ctx, cmd.Key, val); err != nil {
				mt.PutErrors++
			}
			cost := mt.list.visitCost()
			if mt.list.Bytes() >= mt.limit {
				cost += mt.minorCompact(ctx)
			}
			// Writes are acknowledged by the consensus actor at the
			// commit point, not here.
			return cost
		case kindGet:
			cmd, ok := decodeCmd(m.Data)
			if !ok {
				return 300 * sim.Nanosecond
			}
			v, found, tomb, _ := mt.list.Get(ctx, cmd.Key)
			cost := mt.list.visitCost()
			switch {
			case found && tomb:
				mt.Hits++
				resp := m
				resp.Data = []byte{byte(StatusNotFound)}
				ctx.Reply(resp)
			case found:
				mt.Hits++
				resp := m
				resp.Data = append([]byte{byte(StatusOK)}, v...)
				ctx.Reply(resp)
			default:
				// Miss: forward to the SSTable read actor, Reply intact.
				mt.Misses++
				ctx.Send(mt.sstReader, m)
			}
			return cost
		}
		return 200 * sim.Nanosecond
	}
	mt.Actor = a
	return mt
}

// minorCompact drains the skip list and ships it to the compaction
// actor; the Memtable then starts empty (§4: "Upon a minor compaction,
// the Memtable actor migrates its Memtable object to the host and
// issues a message to the compaction actor").
func (mt *Memtable) minorCompact(ctx actor.Ctx) sim.Time {
	entries, err := mt.list.Drain(ctx)
	if err != nil || len(entries) == 0 {
		return 0
	}
	mt.Compactions++
	payload := encodeEntries(entries)
	ctx.Send(mt.compactor, actor.Msg{Kind: kindMinorCompact, Data: payload})
	// Serializing the drained table costs ≈2ns/byte on the reference
	// core; the PCIe transfer is charged by the messaging layer.
	return sim.Time(2 * len(payload))
}

// --- SSTable read actor ---------------------------------------------------

// NewSSTReader builds the host-pinned read actor over the shared store.
func NewSSTReader(id actor.ID, store *SSTStore) *actor.Actor {
	a := &actor.Actor{
		ID:       id,
		Name:     "rkv-sstread",
		PinHost:  true,
		MemBound: 0.6,
	}
	a.OnMessage = func(ctx actor.Ctx, m actor.Msg) sim.Time {
		cmd, ok := decodeCmd(m.Data)
		if !ok {
			return 300 * sim.Nanosecond
		}
		v, found := store.Lookup(cmd.Key)
		resp := m
		if found {
			resp.Data = append([]byte{byte(StatusOK)}, v...)
		} else {
			resp.Data = []byte{byte(StatusNotFound)}
		}
		ctx.Reply(resp)
		// Each level probe costs a (cached) storage read.
		levels := len(store.Levels)
		if levels == 0 {
			levels = 1
		}
		return sim.Time(levels) * 4 * sim.Microsecond
	}
	return a
}

// --- Compaction actor ------------------------------------------------------

// NewCompactor builds the host-pinned compaction actor.
func NewCompactor(id actor.ID, store *SSTStore) *actor.Actor {
	a := &actor.Actor{
		ID:       id,
		Name:     "rkv-compact",
		PinHost:  true,
		MemBound: 0.7,
	}
	a.OnMessage = func(ctx actor.Ctx, m actor.Msg) sim.Time {
		if m.Kind != kindMinorCompact {
			return 200 * sim.Nanosecond
		}
		entries := decodeEntries(m.Data)
		rewritten := store.AddL0(entries)
		// Sequential merge I/O: ≈5ns/byte reference charge.
		return 2*sim.Microsecond + sim.Time(5*(len(m.Data)+rewritten))
	}
	return a
}
