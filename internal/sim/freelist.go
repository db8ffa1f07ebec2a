package sim

// FreeList is a capped LIFO free list of records, for one writer: the
// partition (or the client, or the node) whose events take from it and
// put back into it. It is the shared half of the per-message-record
// idiom (DESIGN.md §4): a record is made on first use with its
// continuations bound once, recycled through a list like this one, and
// left to the GC beyond the cap — a burst may need many records at once,
// and without a cap every one of them would stay pinned, and marked by
// every collection, for the rest of the run. The zero value is an empty
// list.
type FreeList[T any] struct {
	free []*T
}

// Take removes and returns the most recently put record, or nil when the
// list is empty (the caller then makes one).
func (l *FreeList[T]) Take() *T {
	k := len(l.free)
	if k == 0 {
		return nil
	}
	x := l.free[k-1]
	l.free[k-1] = nil
	l.free = l.free[:k-1]
	return x
}

// Put returns a record to the list unless it already holds max.
func (l *FreeList[T]) Put(x *T, max int) {
	if len(l.free) < max {
		l.free = append(l.free, x)
	}
}

// Len returns how many records are on the list.
func (l *FreeList[T]) Len() int { return len(l.free) }
