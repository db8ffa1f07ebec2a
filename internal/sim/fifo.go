package sim

// FIFO is a head-indexed queue. Popping advances head instead of
// reslicing (q = q[1:] would pin the consumed prefix of the backing
// array — and everything its slots point to — for the queue's lifetime,
// and make append reallocate on every burst because it can never reuse
// that prefix); consumed slots are zeroed so what they referenced is
// released immediately, and a full array whose dead prefix is worth
// reclaiming is compacted instead of grown, so a steady-state queue
// reuses one backing array with no per-op allocation and a standing
// backlog costs little more than its own length. The zero value is an
// empty queue.
//
// It backs every message and job queue on the per-message path: the
// scheduler's ingress queues, actor mailboxes, the host's per-core
// queues and Station's wait queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Push appends v at the tail.
func (f *FIFO[T]) Push(v T) {
	if len(f.buf) == cap(f.buf) && f.head*4 >= len(f.buf) && f.head > 0 {
		// append would reallocate and copy the live region anyway: copy
		// it down over the dead prefix instead. The prefix is at least a
		// quarter of the array, so the copy is paid for by the pushes it
		// makes room for.
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

// Pop removes and returns the oldest element.
func (f *FIFO[T]) Pop() (T, bool) {
	var zero T
	if f.head == len(f.buf) {
		return zero, false
	}
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		// Empty: rewind in place, keeping the array for reuse.
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v, true
}

// PopTail removes and returns the newest element (a work-stealing
// consumer taking from the far end).
func (f *FIFO[T]) PopTail() (T, bool) {
	var zero T
	if f.head == len(f.buf) {
		return zero, false
	}
	last := len(f.buf) - 1
	v := f.buf[last]
	f.buf[last] = zero
	f.buf = f.buf[:last]
	if f.head == last {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v, true
}

// Len returns the number of queued elements.
func (f *FIFO[T]) Len() int { return len(f.buf) - f.head }

// Drain removes and returns everything queued, oldest first. The caller
// owns the returned slice: the queue gives up its backing array.
func (f *FIFO[T]) Drain() []T {
	out := f.buf[f.head:]
	f.buf, f.head = nil, 0
	return out
}
