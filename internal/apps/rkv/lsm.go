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

// Op codes inside commands: RKV serves reads and writes only.
const (
	opGet byte = iota + 1
	opPut
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

// Status-only replies share one read-only payload per status. Nothing
// writes into a reply's Data, and each has len == cap == 1, so a
// receiver that appends to one copies it instead of writing into it.
var (
	statusOK       = []byte{byte(StatusOK)}
	statusNotFound = []byte{byte(StatusNotFound)}
	statusRedirect = []byte{byte(StatusRedirect)}
)

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
	op    byte
	key   []byte
	value []byte
}

// encodeCmd serializes a command.
func encodeCmd(c command) []byte {
	out := make([]byte, 0, 1+1+len(c.key)+2+len(c.value))
	out = append(out, c.op, byte(len(c.key)))
	out = append(out, c.key...)
	var vl [2]byte
	binary.LittleEndian.PutUint16(vl[:], uint16(len(c.value)))
	out = append(out, vl[:]...)
	out = append(out, c.value...)
	return out
}

// decodeCmd parses a command; ok is false on malformed input, and an op
// other than opGet or opPut is malformed. Key and Value are views into
// p, not copies — a borrow like ObjRead's: they are good for as long as
// p is (a handler decoding m.Data: until it returns), their capacity
// ends where they do, and a caller that keeps either copies it. An
// empty field decodes as nil; an empty value is still a value.
func decodeCmd(p []byte) (command, bool) {
	if len(p) < 4 || (p[0] != opGet && p[0] != opPut) {
		return command{}, false
	}
	c := command{op: p[0]}
	kl := int(p[1])
	p = p[2:]
	if len(p) < kl+2 {
		return command{}, false
	}
	if kl > 0 {
		c.key = p[:kl:kl]
	}
	p = p[kl:]
	vl := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) < vl {
		return command{}, false
	}
	if vl > 0 {
		c.value = p[:vl:vl]
	}
	return c, true
}

// encodeEntries / decodeEntries serialize Memtable drains for the
// minor-compaction message: per entry the key length, the key, a flag
// byte that is always 0, the value length and the value. The payload
// crosses the NIC→host ring and its bytes are charged as DMA time, so
// the flag stays: dropping it would move every compaction's cost.
func encodeEntries(es []entry) []byte {
	n := 0
	for _, e := range es {
		n += 1 + len(e.key) + 1 + 4 + len(e.value)
	}
	out := make([]byte, 0, n)
	for _, e := range es {
		out = append(out, byte(len(e.key)))
		out = append(out, e.key...)
		out = append(out, 0)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e.value)))
		out = append(out, e.value...)
	}
	return out
}

// decodeEntries parses a minor-compaction payload.
func decodeEntries(p []byte) []entry {
	var out []entry
	for len(p) >= 2 {
		kl := int(p[0])
		p = p[1:]
		if len(p) < kl+1 {
			break
		}
		e := entry{key: append([]byte(nil), p[:kl]...)}
		p = p[kl+1:] // the flag byte
		if len(p) < 4 {
			break
		}
		vl := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if len(p) < vl {
			break
		}
		e.value = append([]byte(nil), p[:vl]...)
		p = p[vl:]
		out = append(out, e)
	}
	return out
}

// --- SSTables ---------------------------------------------------------

// run is a sorted, deduplicated sequence of entries.
type run []entry

// SSTStore is the on-disk store shared by the SSTable read actor and the
// compaction actor: level-0 runs, one per drained Memtable, newest
// first. In the paper both actors live on the host because they need
// the persistent store; the disk — not memory — is the shared
// substrate, so sharing this struct between exactly those two actors
// preserves the no-shared-memory actor rule in spirit. It keeps no
// deeper levels: a leveled store would first merge at a fifth run, and
// no program reaches one (DESIGN.md §6).
type SSTStore struct {
	runs []run
}

// NewSSTStore builds an empty store.
func NewSSTStore() *SSTStore { return &SSTStore{} }

// add installs a drained Memtable as the newest level-0 run.
func (s *SSTStore) add(entries []entry) {
	s.runs = append([]run{normalizeRun(entries)}, s.runs...)
}

// normalizeRun sorts entries and keeps the last occurrence of each key.
func normalizeRun(entries []entry) run {
	sort.SliceStable(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].key, entries[j].key) < 0
	})
	out := entries[:0]
	for i := 0; i < len(entries); i++ {
		if i+1 < len(entries) && bytes.Equal(entries[i].key, entries[i+1].key) {
			continue // a newer duplicate follows
		}
		out = append(out, entries[i])
	}
	return run(append([]entry(nil), out...))
}

// lookup searches the runs newest first.
func (s *SSTStore) lookup(key []byte) ([]byte, bool) {
	var kbuf [keyLen]byte
	k := padKey(&kbuf, key)
	for _, r := range s.runs {
		i := sort.Search(len(r), func(i int) bool {
			return bytes.Compare(r[i].key, k) >= 0
		})
		if i < len(r) && bytes.Equal(r[i].key, k) {
			return r[i].value, true
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
	// misses counts the reads the Memtable forwarded to the SSTables.
	misses uint64
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
			// A write the skip list refuses (the actor's DMO region is
			// exhausted) is lost here although it was acknowledged at
			// commit; the key keeps its last applied value.
			_ = mt.list.put(ctx, cmd.key, cmd.value)
			cost := mt.list.visitCost()
			if mt.list.bytes >= mt.limit {
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
			v, found, _ := mt.list.get(ctx, cmd.key)
			cost := mt.list.visitCost()
			if found {
				resp := m
				resp.Data = append([]byte{byte(StatusOK)}, v...)
				ctx.Reply(resp)
			} else {
				// Miss: forward to the SSTable read actor, Reply intact.
				mt.misses++
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
	entries, err := mt.list.drain(ctx)
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
		v, found := store.lookup(cmd.key)
		resp := m
		if found {
			resp.Data = append([]byte{byte(StatusOK)}, v...)
		} else {
			resp.Data = statusNotFound
		}
		ctx.Reply(resp)
		// One probe of level 0 costs a (cached) storage read.
		return 4 * sim.Microsecond
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
		store.add(decodeEntries(m.Data))
		// Sequential write I/O: ≈5ns/byte reference charge.
		return 2*sim.Microsecond + sim.Time(5*len(m.Data))
	}
	return a
}
