package dt

import (
	"bytes"
	"encoding/binary"
	"sort"

	"repro/internal/actor"
	"repro/internal/sim"
)

// Message kinds of the transaction protocol.
const (
	// KindTxn is the client request (EncodeTxn payload).
	KindTxn actor.Kind = iota + 16
	// kindPhase1 asks a participant to read the read-set keys it holds
	// and lock the write-set keys it holds.
	kindPhase1
	// kindPhase1Resp returns read values+versions and lock outcomes.
	kindPhase1Resp
	// kindValidate asks a participant to re-check read-set versions.
	kindValidate
	// kindValidateResp returns the validation verdict.
	kindValidateResp
	// kindCommit installs the write set and unlocks.
	kindCommit
	// kindCommitAck acknowledges installation.
	kindCommitAck
	// kindAbort unlocks the write-set keys of an aborted transaction.
	kindAbort
	// kindCheckpoint carries a full coordinator-log object to the
	// host logging actor (§4: issued when the log reaches its limit).
	kindCheckpoint
	// KindSweep asks the coordinator to abort in-flight transactions
	// older than its TxnTimeout (injected periodically by the deployment
	// layer; a recovery path, not part of the client protocol).
	KindSweep
)

// Outcome is the transaction verdict returned to the client in the
// first response byte.
type Outcome byte

// Outcome codes.
const (
	OutcomeCommitted Outcome = 1
	OutcomeAborted   Outcome = 2
)

// String names the outcome for logs and experiment output.
func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeAborted:
		return "aborted"
	}
	return "invalid"
}

// OutcomeOf reads the outcome byte of a client response (0 on empty).
func OutcomeOf(p []byte) Outcome {
	if len(p) == 0 {
		return 0
	}
	return Outcome(p[0])
}

// logLimitBytes is the coordinator log capacity before checkpointing.
const logLimitBytes = 1 << 16

// checkpointZeros backs checkpoint payloads. The logger reads only a
// payload's length, so checkpoints share this one array, read-only.
var checkpointZeros [logLimitBytes]byte

// checkpointPayload is an n-byte checkpoint payload. Its capacity is its
// length, so no one can append into the shared zeros. A log entry larger
// than the whole log leaves the offset past logLimitBytes; that
// checkpoint gets a payload of its own.
func checkpointPayload(n int) []byte {
	if n > len(checkpointZeros) {
		return make([]byte, n)
	}
	return checkpointZeros[:n:n]
}

// Partition maps a key to one of n participants.
func Partition(key []byte, n int) int {
	return int(hashKey(key) % uint64(n))
}

// --- wire helpers ----------------------------------------------------

// wbuf appends the little-endian wire encoding to a byte slice. Every
// sender sizes its payload first (blobLen, keysLen, pairsLen) and makes
// the slice once at that capacity, so a message costs one exact-size
// allocation.
type wbuf []byte

func (w *wbuf) u64(v uint64) { *w = binary.LittleEndian.AppendUint64(*w, v) }
func (w *wbuf) u16(v int)    { *w = binary.LittleEndian.AppendUint16(*w, uint16(v)) }
func (w *wbuf) u8(v byte)    { *w = append(*w, v) }
func (w *wbuf) blob(p []byte) {
	w.u8(byte(len(p)))
	*w = append(*w, p...)
}
func (w *wbuf) blob16(p []byte) {
	w.u16(len(p))
	*w = append(*w, p...)
}

// Encoded sizes: a blob is a length byte and the bytes, a blob16 a
// two-byte length and the bytes.
func blobLen(p []byte) int   { return 1 + len(p) }
func blob16Len(p []byte) int { return 2 + len(p) }

// keysLen is the encoded size of ops' keys as blobs.
func keysLen(ops []Op) int {
	n := 0
	for _, op := range ops {
		n += blobLen(op.Key)
	}
	return n
}

// pairsLen is the encoded size of ops' keys as blobs, each followed by
// its value as a blob16.
func pairsLen(ops []Op) int {
	n := 0
	for _, op := range ops {
		n += blobLen(op.Key) + blob16Len(op.Value)
	}
	return n
}

type rbuf struct{ p []byte }

func (r *rbuf) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.p)
	r.p = r.p[8:]
	return v
}
func (r *rbuf) u8() byte {
	v := r.p[0]
	r.p = r.p[1:]
	return v
}

// blob and blob16 return views of the buffer, capacity equal to length.
func (r *rbuf) blob() []byte {
	n := int(r.u8())
	v := r.p[:n:n]
	r.p = r.p[n:]
	return v
}
func (r *rbuf) blob16() []byte {
	n := int(binary.LittleEndian.Uint16(r.p))
	r.p = r.p[2:]
	v := r.p[:n:n]
	r.p = r.p[n:]
	return v
}
func (r *rbuf) more() bool { return len(r.p) > 0 }

// --- participant -----------------------------------------------------

// DefaultLockLease bounds how long a write lock can be held without the
// owning transaction completing. A coordinator that crashes mid-2PC
// stops sending commits/aborts; the lease lets participants treat such
// stale locks as released so the store is never left locked forever.
const DefaultLockLease = 10 * sim.Millisecond

// lockHeld reports whether a record's lock is still live: set, and (when
// a lease is configured) younger than the lease.
func lockHeld(rec *Record, now, lease sim.Time) bool {
	if rec == nil || !rec.locked {
		return false
	}
	return lease <= 0 || now-rec.lockedAt < lease
}

// NewParticipant builds a participant actor over its own Store with the
// DefaultLockLease. Costs are per-op hashtable charges consistent with
// Table 3's KV-cache profile (≈1.2µs per lookup/update on the reference
// core).
func NewParticipant(id actor.ID, st *Store) *actor.Actor {
	return NewParticipantLease(id, st, DefaultLockLease)
}

// NewParticipantLease is NewParticipant with an explicit lock lease
// (≤ 0 disables expiry — locks are then held until commit/abort).
func NewParticipantLease(id actor.ID, st *Store, lease sim.Time) *actor.Actor {
	const opCost = 1200 * sim.Nanosecond
	a := &actor.Actor{
		ID:        id,
		Name:      "dt-participant",
		Exclusive: true, // mutates the shared table
		MemBound:  0.35, // hashtable walks
	}
	// keys is phase 1's parse scratch: views of the message's read keys,
	// then its lock keys. Store.Put copies a key it keeps, and the views
	// are cleared before the handler returns.
	var keys [][]byte
	a.OnMessage = func(ctx actor.Ctx, m actor.Msg) sim.Time {
		r := rbuf{m.Data}
		var cost sim.Time = 400 * sim.Nanosecond
		switch m.Kind {
		case kindPhase1:
			txn := r.u64()
			ok := byte(1)
			nRead := int(r.u8())
			for i := 0; i < nRead; i++ {
				keys = append(keys, r.blob())
			}
			nLock := int(r.u8())
			for i := 0; i < nLock; i++ {
				keys = append(keys, r.blob())
			}
			reads, locks := keys[:nRead], keys[nRead:]
			// Abort fast if anything in R or W is already locked (expired
			// leases do not count: their owner is presumed dead).
			for _, k := range keys {
				cost += opCost
				if lockHeld(st.Get(k), ctx.Now(), lease) {
					ok = 0
				}
			}
			if ok == 1 {
				for _, k := range locks {
					rec := st.Get(k)
					if rec == nil {
						rec = &Record{}
						st.put(k, rec)
						cost += opCost
					}
					rec.locked = true
					rec.lockedAt = ctx.Now()
				}
			}
			size := 8 + 1 + 1
			for _, k := range reads {
				var val []byte
				if rec := st.Get(k); rec != nil {
					val = rec.Value
				}
				size += blobLen(k) + blob16Len(val) + 8
			}
			w := make(wbuf, 0, size)
			w.u64(txn)
			w.u8(ok)
			w.u8(byte(nRead))
			for _, k := range reads {
				var val []byte
				var ver uint64
				if rec := st.Get(k); rec != nil {
					val, ver = rec.Value, rec.version
				}
				w.blob(k)
				w.blob16(val)
				w.u64(ver)
			}
			clear(keys)
			keys = keys[:0]
			ctx.Send(m.Src, actor.Msg{Kind: kindPhase1Resp, Data: w})
		case kindValidate:
			txn := r.u64()
			ok := byte(1)
			for r.more() {
				k := r.blob()
				ver := r.u64()
				cost += opCost
				rec := st.Get(k)
				cur := uint64(0)
				if rec != nil {
					cur = rec.version
				}
				if lockHeld(rec, ctx.Now(), lease) || cur != ver {
					ok = 0
				}
			}
			w := make(wbuf, 0, 8+1)
			w.u64(txn)
			w.u8(ok)
			ctx.Send(m.Src, actor.Msg{Kind: kindValidateResp, Data: w})
		case kindCommit:
			txn := r.u64()
			for r.more() {
				k := r.blob()
				val := r.blob16()
				cost += opCost
				rec := st.Get(k)
				if rec == nil {
					rec = &Record{}
					st.put(k, rec)
				}
				rec.Value = append(rec.Value[:0], val...)
				rec.version++
				rec.locked = false
			}
			w := make(wbuf, 0, 8)
			w.u64(txn)
			ctx.Send(m.Src, actor.Msg{Kind: kindCommitAck, Data: w})
		case kindAbort:
			_ = r.u64()
			for r.more() {
				k := r.blob()
				cost += opCost
				if rec := st.Get(k); rec != nil {
					rec.locked = false
				}
			}
		}
		return cost
	}
	return a
}

// --- logging actor (host-pinned) --------------------------------------

// NewLogger builds the host logging actor that persists checkpointed
// coordinator logs (§4: "a logging actor pinned to the host since it
// requires persistent storage access").
func NewLogger(id actor.ID, onCheckpoint func(bytes int)) *actor.Actor {
	a := &actor.Actor{
		ID:      id,
		Name:    "dt-logger",
		PinHost: true,
		// Storage writes dominate; host disks are the substrate.
		MemBound: 0.6,
	}
	a.OnMessage = func(ctx actor.Ctx, m actor.Msg) sim.Time {
		if m.Kind == kindCheckpoint {
			if onCheckpoint != nil {
				onCheckpoint(len(m.Data))
			}
			// Sequential storage write: ≈25ns/byte reference-core charge
			// stands in for the I/O path.
			return 5*sim.Microsecond + sim.Time(len(m.Data)/40)
		}
		return sim.Microsecond
	}
	return a
}

// --- coordinator -------------------------------------------------------

// maxFreeTxns caps the coordinator's list of recycled transaction
// records (sim.FreeList): a burst past it leaves its extras to the GC.
const maxFreeTxns = 64

// readResult is one read key's phase-1 answer; key and val are views of
// the phase1Resp payload.
type readResult struct {
	key, val []byte
	ver      uint64
}

// txnState is one in-flight transaction. The coordinator recycles it
// (takeTxn, release); a message finds it only through inflight, by a
// transaction ID that is never reused.
type txnState struct {
	id uint64
	// txn's keys and values are views of client.Data (decodeTxnInto).
	txn     Txn
	client  actor.Msg
	pending int
	failed  bool
	// startedAt stamps arrival, for the sweep's staleness check.
	startedAt sim.Time
	// committed flips once the log append (the commit point) happens;
	// the sweep must never abort such a transaction.
	committed bool
	// reads holds one answer per distinct read key; a key answered twice
	// keeps the later answer.
	reads []readResult
	// readAt[i] and lockedAt[i] are the read and write ops participant i
	// (c.participants[i]) holds.
	readAt, lockedAt [][]Op
}

// setRead records a phase-1 answer for key, replacing an earlier one.
func (st *txnState) setRead(key, val []byte, ver uint64) {
	for i := range st.reads {
		if bytes.Equal(st.reads[i].key, key) {
			st.reads[i].val, st.reads[i].ver = val, ver
			return
		}
	}
	st.reads = append(st.reads, readResult{key, val, ver})
}

// readOf returns key's phase-1 answer (nil, 0 before one arrives).
func (st *txnState) readOf(key []byte) ([]byte, uint64) {
	for _, r := range st.reads {
		if bytes.Equal(r.key, key) {
			return r.val, r.ver
		}
	}
	return nil, 0
}

// Coordinator drives the OCC/2PC protocol. Exported state supports the
// experiment harness.
type Coordinator struct {
	Actor *actor.Actor

	participants []actor.ID
	logger       actor.ID

	nextTxn  uint64
	inflight map[uint64]*txnState
	free     sim.FreeList[txnState]

	logObj    uint64
	logOffset int
	// entry is the log-entry scratch; ObjWrite copies it.
	entry wbuf

	// TxnTimeout, when > 0, lets a KindSweep message abort in-flight
	// transactions older than this (stuck because a participant died
	// mid-protocol). Transactions past the commit point are finished as
	// committed instead — the log entry is the truth.
	TxnTimeout sim.Time

	// Committed/Aborted count outcomes.
	Committed uint64
	Aborted   uint64
	// TimeoutAborts counts aborts forced by the sweep.
	TimeoutAborts uint64
	// Checkpoints counts log-object migrations to the host.
	Checkpoints uint64
}

// NewCoordinator builds the coordinator actor over distinct participant
// IDs.
func NewCoordinator(id actor.ID, participants []actor.ID, logger actor.ID) *Coordinator {
	c := &Coordinator{
		participants: participants,
		logger:       logger,
		inflight:     map[uint64]*txnState{},
	}
	a := &actor.Actor{
		ID:        id,
		Name:      "dt-coordinator",
		Exclusive: true, // one writer for inflight and the free list
		MemBound:  0.2,
	}
	a.OnInit = func(ctx actor.Ctx) {
		c.logObj, _ = ctx.Alloc(logLimitBytes)
	}
	a.OnMessage = c.onMessage
	c.Actor = a
	return c
}

// takeTxn returns a zeroed transaction record, recycled when one is free.
func (c *Coordinator) takeTxn() *txnState {
	if st := c.free.Take(); st != nil {
		return st
	}
	n := len(c.participants)
	return &txnState{readAt: make([][]Op, n), lockedAt: make([][]Op, n)}
}

// release zeroes st and returns it to the free list. Its slices keep
// their capacity, but every view in them is cleared up to that capacity,
// so a free record pins no payload.
func (c *Coordinator) release(st *txnState) {
	for i := range st.readAt {
		st.readAt[i] = emptied(st.readAt[i])
		st.lockedAt[i] = emptied(st.lockedAt[i])
	}
	*st = txnState{
		txn:    Txn{Reads: emptied(st.txn.Reads), Writes: emptied(st.txn.Writes)},
		reads:  emptied(st.reads),
		readAt: st.readAt, lockedAt: st.lockedAt,
	}
	c.free.Put(st, maxFreeTxns)
}

// emptied returns s with length zero, every element up to its capacity
// cleared.
func emptied[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

func (c *Coordinator) onMessage(ctx actor.Ctx, m actor.Msg) sim.Time {
	switch m.Kind {
	case KindTxn:
		return c.startTxn(ctx, m)
	case kindPhase1Resp:
		return c.phase1Resp(ctx, m)
	case kindValidateResp:
		return c.validateResp(ctx, m)
	case kindCommitAck:
		return c.commitAck(ctx, m)
	case KindSweep:
		return c.sweep(ctx)
	}
	return 200 * sim.Nanosecond
}

// sweep aborts in-flight transactions older than TxnTimeout: their
// participants answered with a verdict that never completed (a death
// mid-2PC drops messages on the floor). Pre-commit-point transactions
// abort cleanly — lock-release messages go to every write-set
// participant, reachable or not, and participant lock leases cover the
// unreachable ones. Post-commit-point transactions finish as committed:
// the log append already decided them.
func (c *Coordinator) sweep(ctx actor.Ctx) sim.Time {
	if c.TxnTimeout <= 0 {
		return 200 * sim.Nanosecond
	}
	now := ctx.Now()
	stale := make([]uint64, 0, len(c.inflight))
	for id, st := range c.inflight {
		if now-st.startedAt >= c.TxnTimeout {
			stale = append(stale, id)
		}
	}
	// Sorted: the abort fan-out order must not depend on map order.
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	cost := 300 * sim.Nanosecond
	for _, id := range stale {
		st := c.inflight[id]
		if st.committed {
			c.finish(ctx, st, OutcomeCommitted)
		} else {
			c.TimeoutAborts++
			c.abort(ctx, st)
		}
		cost += 600 * sim.Nanosecond
	}
	return cost
}

func (c *Coordinator) startTxn(ctx actor.Ctx, m actor.Msg) sim.Time {
	st := c.takeTxn()
	if !decodeTxnInto(m.Data, &st.txn) {
		c.release(st)
		c.Aborted++
		resp := m
		resp.Data = []byte{byte(OutcomeAborted)}
		ctx.Reply(resp)
		return 400 * sim.Nanosecond
	}
	st.id, st.client, st.startedAt = c.nextTxn, m, ctx.Now()
	c.nextTxn++
	for _, op := range st.txn.Reads {
		i := Partition(op.Key, len(c.participants))
		st.readAt[i] = append(st.readAt[i], op)
	}
	for _, op := range st.txn.Writes {
		i := Partition(op.Key, len(c.participants))
		st.lockedAt[i] = append(st.lockedAt[i], op)
	}
	c.inflight[st.id] = st
	// Phase 1: read + lock, one message per involved participant, in
	// ring order: the send order fixes the message sequence, which
	// determinism depends on.
	for i, p := range c.participants {
		reads, locks := st.readAt[i], st.lockedAt[i]
		if len(reads)+len(locks) == 0 {
			continue
		}
		w := make(wbuf, 0, 8+1+keysLen(reads)+1+keysLen(locks))
		w.u64(st.id)
		w.u8(byte(len(reads)))
		for _, op := range reads {
			w.blob(op.Key)
		}
		w.u8(byte(len(locks)))
		for _, op := range locks {
			w.blob(op.Key)
		}
		st.pending++
		ctx.Send(p, actor.Msg{Kind: kindPhase1, Data: w})
	}
	return 800 * sim.Nanosecond
}

func (c *Coordinator) phase1Resp(ctx actor.Ctx, m actor.Msg) sim.Time {
	r := rbuf{m.Data}
	id := r.u64()
	st, ok := c.inflight[id]
	if !ok {
		return 200 * sim.Nanosecond
	}
	if r.u8() == 0 {
		st.failed = true
	}
	nReads := int(r.u8())
	for i := 0; i < nReads; i++ {
		k := r.blob()
		v := r.blob16()
		st.setRead(k, v, r.u64())
	}
	st.pending--
	if st.pending > 0 {
		return 500 * sim.Nanosecond
	}
	if st.failed {
		c.abort(ctx, st)
		return 600 * sim.Nanosecond
	}
	// Phase 2: validate read versions.
	if len(st.txn.Reads) == 0 {
		return c.logAndCommit(ctx, st) + 500*sim.Nanosecond
	}
	for i, p := range c.participants {
		ops := st.readAt[i]
		if len(ops) == 0 {
			continue
		}
		w := make(wbuf, 0, 8+keysLen(ops)+8*len(ops))
		w.u64(id)
		for _, op := range ops {
			_, ver := st.readOf(op.Key)
			w.blob(op.Key)
			w.u64(ver)
		}
		st.pending++
		ctx.Send(p, actor.Msg{Kind: kindValidate, Data: w})
	}
	return 700 * sim.Nanosecond
}

func (c *Coordinator) validateResp(ctx actor.Ctx, m actor.Msg) sim.Time {
	r := rbuf{m.Data}
	id := r.u64()
	st, ok := c.inflight[id]
	if !ok {
		return 200 * sim.Nanosecond
	}
	if r.u8() == 0 {
		st.failed = true
	}
	st.pending--
	if st.pending > 0 {
		return 400 * sim.Nanosecond
	}
	if st.failed {
		c.abort(ctx, st)
		return 600 * sim.Nanosecond
	}
	return c.logAndCommit(ctx, st)
}

// logAndCommit performs phases 3 and 4: append to the coordinator log
// (the commit point) and send commit messages.
func (c *Coordinator) logAndCommit(ctx actor.Ctx, st *txnState) sim.Time {
	c.entry = c.entry[:0]
	c.entry.u64(st.id)
	for _, op := range st.txn.Writes {
		c.entry.blob(op.Key)
		c.entry.blob16(op.Value)
	}
	e := c.entry
	if c.logOffset+len(e) > logLimitBytes {
		// Log full: migrate the log object to the host and checkpoint
		// (§4), then start a fresh log object.
		if _, err := ctx.ObjMigrate(c.logObj); err == nil {
			c.Checkpoints++
			ctx.Send(c.logger, actor.Msg{Kind: kindCheckpoint, Data: checkpointPayload(c.logOffset)})
		}
		c.logObj, _ = ctx.Alloc(logLimitBytes)
		c.logOffset = 0
	}
	ctx.ObjWrite(c.logObj, c.logOffset, e)
	c.logOffset += len(e)
	st.committed = true // commit point: the log entry decides the txn

	// Phase 4: commit to write-set participants, in ring order.
	if len(st.txn.Writes) == 0 {
		c.finish(ctx, st, OutcomeCommitted)
		return 900 * sim.Nanosecond
	}
	for i, p := range c.participants {
		ops := st.lockedAt[i]
		if len(ops) == 0 {
			continue
		}
		w := make(wbuf, 0, 8+pairsLen(ops))
		w.u64(st.id)
		for _, op := range ops {
			w.blob(op.Key)
			w.blob16(op.Value)
		}
		st.pending++
		ctx.Send(p, actor.Msg{Kind: kindCommit, Data: w})
	}
	return 900 * sim.Nanosecond
}

func (c *Coordinator) commitAck(ctx actor.Ctx, m actor.Msg) sim.Time {
	r := rbuf{m.Data}
	id := r.u64()
	st, ok := c.inflight[id]
	if !ok {
		return 200 * sim.Nanosecond
	}
	st.pending--
	if st.pending == 0 {
		c.finish(ctx, st, OutcomeCommitted)
	}
	return 400 * sim.Nanosecond
}

func (c *Coordinator) abort(ctx actor.Ctx, st *txnState) {
	// Ring order for the same determinism reason as the other phases.
	for i, p := range c.participants {
		ops := st.lockedAt[i]
		if len(ops) == 0 {
			continue
		}
		w := make(wbuf, 0, 8+keysLen(ops))
		w.u64(st.id)
		for _, op := range ops {
			w.blob(op.Key)
		}
		ctx.Send(p, actor.Msg{Kind: kindAbort, Data: w})
	}
	c.finish(ctx, st, OutcomeAborted)
}

// finish replies to the client — the outcome byte, then each read key
// with its value — and releases the transaction record.
func (c *Coordinator) finish(ctx actor.Ctx, st *txnState, outcome Outcome) {
	delete(c.inflight, st.id)
	if outcome == OutcomeCommitted {
		c.Committed++
	} else {
		c.Aborted++
	}
	size := 1
	for _, op := range st.txn.Reads {
		val, _ := st.readOf(op.Key)
		size += blobLen(op.Key) + blob16Len(val)
	}
	w := make(wbuf, 0, size)
	w.u8(byte(outcome))
	for _, op := range st.txn.Reads {
		val, _ := st.readOf(op.Key)
		w.blob(op.Key)
		w.blob16(val)
	}
	resp := st.client
	resp.Data = w
	ctx.Reply(resp)
	c.release(st)
}

// DecodeOutcome splits a client response into outcome and read values.
func DecodeOutcome(p []byte) (Outcome, map[string][]byte) {
	if len(p) == 0 {
		return 0, nil
	}
	out := Outcome(p[0])
	r := rbuf{p[1:]}
	vals := map[string][]byte{}
	for r.more() {
		k := string(r.blob())
		vals[k] = append([]byte(nil), r.blob16()...)
	}
	return out, vals
}
