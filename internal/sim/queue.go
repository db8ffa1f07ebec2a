package sim

// eventQueue is a 4-ary min-heap of *event ordered by (at, seq). It is
// specialized to the event type — no interface boxing, no per-element
// index bookkeeping — because the engine's schedule/pop cycle is the
// hottest loop in the whole simulator. A 4-ary layout halves the tree
// depth of a binary heap, trading a few extra comparisons per level for
// far fewer cache-missing hops on sift-down; for the queue depths the
// substrates produce (10²–10⁵ pending events) that is a clear win.
//
// The ordering is a strict total order (seq is unique), so pop order is
// identical to any other min-heap over the same comparator — swapping
// the container/heap implementation for this one cannot reorder events.
type eventQueue []*event

// before reports whether a fires strictly before b.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push inserts ev, sifting it up with the hole-propagation trick (move
// parents down, write ev once) instead of pairwise swaps.
func (q *eventQueue) push(ev *event) {
	a := append(*q, ev)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !before(ev, a[p]) {
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
func (q *eventQueue) pop() *event {
	a := *q
	root := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = nil // release the pointer for GC
	a = a[:n]
	*q = a
	if n > 0 {
		a[0] = last
		a.down(0)
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
		if c+1 < n && before(q[c+1], q[m]) {
			m = c + 1
		}
		if c+2 < n && before(q[c+2], q[m]) {
			m = c + 2
		}
		if c+3 < n && before(q[c+3], q[m]) {
			m = c + 3
		}
		if !before(q[m], ev) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = ev
}
