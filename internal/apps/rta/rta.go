// Package rta is the real-time analytics engine of §4 (derived from
// FlexStorm): data tuples flow through three workers — a filter that
// discards uninteresting tuples with a pattern-matching module, a
// counter that maintains sliding-window counts and periodically emits
// them, and a ranker that sorts by count and forwards the top-n to an
// aggregated ranker. Each worker consults a topology mapping table for
// its successor.
//
// The filter is a real Aho–Corasick multi-pattern matcher; the counter
// keeps a real sliding window; the ranker really sorts. Execution costs
// charged to the simulated cores are derived from the tuple volume and
// Table 3's Top-ranker profile.
package rta

import (
	"bytes"
	"encoding/binary"
	"sort"

	"repro/internal/actor"
	"repro/internal/sim"
)

// Message kinds of the RTA topology.
const (
	// KindTuples carries a batch of raw tuples (client → filter, or
	// filter → counter after filtering).
	KindTuples actor.Kind = iota + 1
	// kindEmit is the counter's periodic window emission to the ranker.
	kindEmit
	// kindTopN is the ranker's output to the aggregated ranker.
	kindTopN
)

// Topology is the mapping table each worker consults for its successor
// (the paper's "topology mapping table").
type Topology struct {
	Filter     actor.ID
	Counter    actor.ID
	Ranker     actor.ID
	Aggregator actor.ID
}

// EncodeTuples packs tuples (word strings) into a message payload.
func EncodeTuples(tuples []string) []byte {
	return []byte(joinSpace(tuples))
}

// decodeTuples unpacks a payload into tuples.
func decodeTuples(p []byte) []string {
	if len(p) == 0 {
		return nil
	}
	parts := bytes.Split(p, []byte{' '})
	out := make([]string, 0, len(parts))
	for _, w := range parts {
		if len(w) > 0 {
			out = append(out, string(w))
		}
	}
	return out
}

func joinSpace(ss []string) string {
	var b bytes.Buffer
	for i, s := range ss {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s)
	}
	return b.String()
}

// --- Filter worker -------------------------------------------------

// NewFilter builds the filter actor: tuples matching any of the
// discard patterns are dropped, the rest forward to the counter. It is
// stateless (§4: "Filter actor is a stateless one"), so it can run on
// multiple cores concurrently.
func NewFilter(id actor.ID, topo Topology, discard []string) (*actor.Actor, *Matcher) {
	m := newMatcher(discard)
	a := &actor.Actor{
		ID:        id,
		Name:      "rta-filter",
		Exclusive: false,
		MemBound:  0.1,
	}
	a.OnMessage = func(ctx actor.Ctx, msg actor.Msg) sim.Time {
		tuples := decodeTuples(msg.Data)
		kept := tuples[:0]
		var scanned int
		for _, t := range tuples {
			scanned += len(t)
			if !m.match(t) {
				kept = append(kept, t)
			}
		}
		if len(kept) > 0 {
			ctx.Send(topo.Counter, actor.Msg{
				Kind: KindTuples, Data: EncodeTuples(kept),
				FlowID: msg.FlowID, Origin: msg.Origin, Reply: msg.Reply,
				WireSize: msg.WireSize,
			})
		} else if msg.Reply != nil {
			// Entire batch filtered: acknowledge to the client.
			ctx.Reply(actor.Msg{Kind: KindTuples, Origin: msg.Origin,
				Reply: msg.Reply, WireSize: 64})
		}
		// DFA matching: ≈6ns/byte on the reference core plus dispatch.
		return 300*sim.Nanosecond + sim.Time(6*scanned)
	}
	return a, m
}

// --- Counter worker ------------------------------------------------

// CounterConfig tunes the sliding window.
type CounterConfig struct {
	// WindowSlots is the number of sub-window slots (counts age out
	// slot by slot).
	WindowSlots int
	// EmitEvery emits the current window to the ranker after this many
	// tuple batches.
	EmitEvery int
}

// Counter is the sliding-window count state, exported for tests.
type Counter struct {
	cfg   CounterConfig
	slots []map[string]uint32
	cur   int
	since int
}

// newCounterState builds counter state.
func newCounterState(cfg CounterConfig) *Counter {
	if cfg.WindowSlots <= 0 {
		cfg.WindowSlots = 4
	}
	if cfg.EmitEvery <= 0 {
		cfg.EmitEvery = 8
	}
	c := &Counter{cfg: cfg}
	c.slots = make([]map[string]uint32, cfg.WindowSlots)
	for i := range c.slots {
		c.slots[i] = map[string]uint32{}
	}
	return c
}

// add counts one tuple in the current slot.
func (c *Counter) add(t string) { c.slots[c.cur][t]++ }

// advance rotates to the next slot, expiring its previous contents.
func (c *Counter) advance() {
	c.cur = (c.cur + 1) % len(c.slots)
	c.slots[c.cur] = map[string]uint32{}
}

// totals sums counts across the window.
func (c *Counter) totals() map[string]uint32 {
	out := map[string]uint32{}
	for _, s := range c.slots {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}

// encodeCounts packs token counts for the emit message.
func encodeCounts(m map[string]uint32) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		var cnt [4]byte
		binary.LittleEndian.PutUint32(cnt[:], m[k])
		b.WriteByte(byte(len(k)))
		b.WriteString(k)
		b.Write(cnt[:])
	}
	return b.Bytes()
}

// decodeCounts unpacks an emit payload.
func decodeCounts(p []byte) map[string]uint32 {
	out := map[string]uint32{}
	for len(p) >= 1 {
		n := int(p[0])
		if len(p) < 1+n+4 {
			break
		}
		k := string(p[1 : 1+n])
		out[k] = binary.LittleEndian.Uint32(p[1+n : 1+n+4])
		p = p[1+n+4:]
	}
	return out
}

// NewCounter builds the counter actor. It uses a software-managed
// cache for statistics (§4) — modeled by the MemBound fraction — and
// periodically emits a window snapshot to the ranker.
func NewCounter(id actor.ID, topo Topology, cfg CounterConfig) (*actor.Actor, *Counter) {
	st := newCounterState(cfg)
	a := &actor.Actor{
		ID:        id,
		Name:      "rta-counter",
		Exclusive: true, // mutates shared window state
		MemBound:  0.3,
	}
	a.OnMessage = func(ctx actor.Ctx, msg actor.Msg) sim.Time {
		tuples := decodeTuples(msg.Data)
		for _, t := range tuples {
			st.add(t)
		}
		st.since++
		cost := 200*sim.Nanosecond + sim.Time(len(tuples))*120*sim.Nanosecond
		if st.since >= st.cfg.EmitEvery {
			st.since = 0
			totals := st.totals()
			st.advance()
			payload := encodeCounts(totals)
			ctx.Send(topo.Ranker, actor.Msg{Kind: kindEmit, Data: payload, FlowID: msg.FlowID})
			cost += sim.Time(len(totals)) * 80 * sim.Nanosecond
		}
		if msg.Reply != nil {
			ctx.Reply(actor.Msg{Kind: KindTuples, Origin: msg.Origin,
				Reply: msg.Reply, WireSize: 64})
		}
		return cost
	}
	return a, st
}

// --- Ranker worker -------------------------------------------------

// Entry is one ranked token.
type Entry struct {
	Token string
	Count uint32
}

// Ranker holds the ranker's consolidated top-n object (§4: "we
// consolidate all top-n data tuples into one object").
type Ranker struct {
	topN int
	best map[string]uint32
}

// newRankerState builds ranker state.
func newRankerState(topN int) *Ranker {
	if topN <= 0 {
		topN = 10
	}
	return &Ranker{topN: topN, best: map[string]uint32{}}
}

// merge folds an emitted window in and returns the current top-n using
// a real sort (the paper's ranker performs quicksort).
func (r *Ranker) merge(counts map[string]uint32) []Entry {
	for k, v := range counts {
		if v > r.best[k] {
			r.best[k] = v
		}
	}
	all := make([]Entry, 0, len(r.best))
	for k, v := range r.best {
		all = append(all, Entry{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Token < all[j].Token
	})
	if len(all) > r.topN {
		all = all[:r.topN]
	}
	// Bound retained state to a multiple of top-n so the object stays
	// small but stable.
	if len(r.best) > 64*r.topN {
		keep := map[string]uint32{}
		for _, e := range all {
			keep[e.Token] = e.Count
		}
		r.best = keep
	}
	return all
}

// encodeTopN packs ranked entries.
func encodeTopN(es []Entry) []byte {
	m := make(map[string]uint32, len(es))
	for _, e := range es {
		m[e.Token] = e.Count
	}
	return encodeCounts(m)
}

// sortCost models quicksort on n elements against Table 3's Top-ranker
// measurement (34µs for a 1KB request ≈ 128 8B elements ⇒ ≈38ns per
// n·log₂n unit).
func sortCost(n int) sim.Time {
	if n <= 1 {
		return 500 * sim.Nanosecond
	}
	log := 0
	for v := n; v > 1; v >>= 1 {
		log++
	}
	return sim.Time(38 * n * log)
}

// NewRanker builds the ranker actor. Its quicksort makes it the RTA
// topology's high-dispersion member — the one iPipe migrates to the
// host when network load is high (§4).
func NewRanker(id actor.ID, topo Topology, topN int) (*actor.Actor, *Ranker) {
	st := newRankerState(topN)
	a := &actor.Actor{
		ID:        id,
		Name:      "rta-ranker",
		Exclusive: true,
		MemBound:  0.05, // compute-bound (Table 3: IPC 1.7, MPKI 0.1)
	}
	a.OnMessage = func(ctx actor.Ctx, msg actor.Msg) sim.Time {
		counts := decodeCounts(msg.Data)
		top := st.merge(counts)
		if topo.Aggregator != 0 {
			ctx.Send(topo.Aggregator, actor.Msg{Kind: kindTopN, Data: encodeTopN(top)})
		}
		return sortCost(len(st.best))
	}
	return a, st
}

// NewAggregator builds the aggregated ranker that consolidates top-n
// streams from all workers; onUpdate observes each consolidated view
// (the experiment harness uses it).
func NewAggregator(id actor.ID, topN int, onUpdate func([]Entry)) (*actor.Actor, *Ranker) {
	st := newRankerState(topN)
	a := &actor.Actor{
		ID:        id,
		Name:      "rta-aggregator",
		Exclusive: true,
		MemBound:  0.05,
	}
	a.OnMessage = func(ctx actor.Ctx, msg actor.Msg) sim.Time {
		top := st.merge(decodeCounts(msg.Data))
		if onUpdate != nil {
			onUpdate(top)
		}
		return sortCost(len(st.best))
	}
	return a, st
}
