package sim

// FIFO is a first-in, first-out queue that reuses its backing array. Pop
// advances a head index instead of re-slicing, and a Push that finds the
// array full slides the live entries back to the front when at least half
// of it is spent, so a queue whose length stays bounded stops allocating
// once its array has grown to twice that bound.
//
// It holds the engine's Resource waiters and serves any other simulation
// queue that cycles entries, such as the PFS repair ledger. The zero value is
// an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued entries.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:]) // drop references the collector would otherwise keep
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the head entry. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// All returns the queued entries, head first, without removing them. The
// slice aliases the queue's storage and is valid until the next Push, Pop or
// Reset.
func (q *FIFO[T]) All() []T { return q.buf[q.head:] }

// Reset empties the queue, keeping its backing array.
func (q *FIFO[T]) Reset() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}
