package kernel

import "nmapsim/internal/workload"

// sockQueue is the per-core socket queue: a FIFO of requests over a
// power-of-two circular buffer. Push and pop are O(1) at any backlog
// depth (bursts queue hundreds of requests per core) and, once the
// buffer has grown to the run's high-water depth, allocation-free.
type sockQueue struct {
	buf  []*workload.Request // length zero or a power of two
	head int                 // index of the oldest request
	n    int                 // queued requests
}

func (q *sockQueue) push(r *workload.Request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

// pop removes and returns the oldest request; the queue must be
// non-empty.
func (q *sockQueue) pop() *workload.Request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// grow doubles the buffer, unwrapping the queue to start at index 0.
func (q *sockQueue) grow() {
	buf := make([]*workload.Request, max(16, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// drain empties the queue and returns its requests oldest first in a
// fresh slice (nil when empty), so the caller may keep them after the
// buffer is reused.
func (q *sockQueue) drain() []*workload.Request {
	if q.n == 0 {
		return nil
	}
	out := make([]*workload.Request, q.n)
	for i := range out {
		out[i] = q.pop()
	}
	return out
}
