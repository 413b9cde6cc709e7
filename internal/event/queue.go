package event

// Queue is a FIFO of pooled records (an op waiting for a load-queue entry, an
// indirect access waiting for a bank's issue port). It is indexed by head,
// not re-sliced: a popped slot is cleared at once, and the backing array is
// reused, from the start whenever the queue runs empty, and by sliding the
// live entries down when it is full but mostly consumed, so a queue that
// never quite drains stays the size of its backlog.
//
// The zero value is an empty queue. Like Freelist, it belongs to one
// execution context.
type Queue[T any] struct {
	ops  []*T
	head int
}

// Len reports the number of queued records.
func (q *Queue[T]) Len() int { return len(q.ops) - q.head }

// Push appends op.
func (q *Queue[T]) Push(op *T) {
	if len(q.ops) == cap(q.ops) && q.head > len(q.ops)/2 {
		n := copy(q.ops, q.ops[q.head:])
		clear(q.ops[n:])
		q.ops, q.head = q.ops[:n], 0
	}
	q.ops = append(q.ops, op)
}

// Pop removes and returns the oldest record; the queue must not be empty.
func (q *Queue[T]) Pop() *T {
	op := q.ops[q.head]
	q.ops[q.head] = nil
	q.head++
	if q.head == len(q.ops) {
		q.ops, q.head = q.ops[:0], 0
	}
	return op
}
