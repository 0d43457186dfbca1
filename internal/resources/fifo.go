package resources

// FIFO is a first-in first-out queue on a ring buffer. The model's
// queues (pipe buffers, blocked writers, CPU ready queues, the contended
// network channel, daemon relay queues) pop from the head and push at
// the tail millions of times per run; a slice popped by reslicing its
// head keeps reallocating as append outruns the abandoned prefix, while
// the ring reuses its storage once it has grown to the queue's peak
// depth.
//
// The buffer grows by doubling (its length stays a power of two) and
// unwraps in order, so elements always leave in arrival order. Popped
// and cleared slots are zeroed, so the ring never keeps a dead pointer
// alive. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head element. It panics on an empty
// queue: callers check Len first.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("resources: Pop from empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// At returns a pointer to the i-th element from the head (0 is the
// next to pop). The pointer is valid until the next Push.
func (q *FIFO[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic("resources: FIFO index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Clear empties the queue, keeping its storage.
func (q *FIFO[T]) Clear() {
	var zero T
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = zero
	}
	q.head, q.n = 0, 0
}

// grow doubles the buffer, copying the live elements to its start in
// queue order.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
