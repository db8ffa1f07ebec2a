package sim

import "math/bits"

// Pending events wait in two tiers split by distance from the clock,
// because the substrates schedule nearly everything less than a few
// microseconds ahead. The near tier is a timing wheel with one slot per
// nanosecond of [now, now+wheelSpan): slot at&wheelMask is a FIFO of
// the events due at that instant, so its push order is seq order and it
// pops them exactly as an (at, seq) heap would, and the next occupied
// slot is two TrailingZeros64 calls away (a word of the occupancy bitmap
// and the summary word over it). The far tier is a 4-ary min-heap of
// events by value, ordered by (at, seq), holding every event at or
// beyond now+wheelSpan. Whenever the clock advances, Engine.migrate moves
// the far events now in range onto their slots in (at, seq) order,
// before anything else can push there, so a far event always precedes a
// later near push at its time: pop order is that of one (at, seq) heap.
const (
	wheelSpan = 1 << 12 // ns covered by the near tier
	wheelMask = wheelSpan - 1
)

// event is a far-tier entry.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events at the same instant
	fn  func()
}

// wheel is the near tier. Each slot is a circular list reached through
// its tail, whose next is the head. The nodes live in one arena, node 0
// standing for none, and go back to the idle list when popped, dropping
// their callback at once.
type wheel struct {
	nodes   []wnode
	idle    int32 // first recycled node
	n       int   // events held
	summary uint64
	occ     [wheelSpan / 64]uint64 // bit s: slot s is occupied
	tails   [wheelSpan]int32
}

type wnode struct {
	fn   func()
	next int32
}

// push appends fn to the slot of time at.
func (w *wheel) push(at Time, fn func()) {
	n := w.idle
	if n != 0 {
		w.idle = w.nodes[n].next
	} else {
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, wnode{})
	}
	s := int(at & wheelMask)
	nd := &w.nodes[n]
	nd.fn = fn
	if t := w.tails[s]; t == 0 {
		nd.next = n
		w.occ[s>>6] |= 1 << (s & 63)
		w.summary |= 1 << (s >> 6)
	} else {
		nd.next = w.nodes[t].next
		w.nodes[t].next = n
	}
	w.tails[s] = n
	w.n++
}

// next returns the time of the first occupied slot at or after now. The
// wheel must not be empty.
func (w *wheel) next(now Time) Time {
	from := int(now & wheelMask)
	i, s := from>>6, 0
	if m := w.occ[i&63] >> (from & 63); m != 0 {
		s = from + bits.TrailingZeros64(m)
	} else {
		m = w.summary >> (i + 1) << (i + 1) // the words after from's
		if m == 0 {
			m = w.summary // wrap around
		}
		i = bits.TrailingZeros64(m)
		s = i<<6 + bits.TrailingZeros64(w.occ[i&63])
	}
	return now + Time((s-from)&wheelMask)
}

// pop removes and returns the head of the occupied slot of time at.
func (w *wheel) pop(at Time) func() {
	s := int(at & wheelMask)
	t := w.tails[s]
	h := w.nodes[t].next
	nd := &w.nodes[h]
	fn := nd.fn
	if h == t {
		w.tails[s] = 0
		if w.occ[s>>6] &^= 1 << (s & 63); w.occ[s>>6] == 0 {
			w.summary &^= 1 << (s >> 6)
		}
	} else {
		w.nodes[t].next = nd.next
	}
	nd.fn, nd.next = nil, w.idle
	w.idle = h
	w.n--
	return fn
}

// eventQueue is the far tier: a 4-ary min-heap, half the depth of a
// binary one, so sift-down makes fewer cache-missing hops.
type eventQueue []event

// before reports whether a fires strictly before b.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push inserts ev, moving parents down and writing ev once.
func (q *eventQueue) push(ev event) {
	a := append(*q, ev)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !before(&ev, &a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = ev
	*q = a
}

// pop removes and returns the earliest event. The queue must not be
// empty.
func (q *eventQueue) pop() event {
	a, n := *q, len(*q)-1
	root := a[0]
	a[0], a[n] = a[n], event{} // the vacated slot releases its callback
	*q = a[:n]
	if n > 0 {
		(*q).down(0)
	}
	return root
}

// down sifts the event at index i toward the leaves.
func (q eventQueue) down(i int) {
	n := len(q)
	ev := q[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		if c+1 < n && before(&q[c+1], &q[m]) {
			m = c + 1
		}
		if c+2 < n && before(&q[c+2], &q[m]) {
			m = c + 2
		}
		if c+3 < n && before(&q[c+3], &q[m]) {
			m = c + 3
		}
		if !before(&q[m], &ev) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = ev
}
