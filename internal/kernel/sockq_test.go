package kernel

import (
	"testing"

	"nmapsim/internal/workload"
)

// TestSockQueueFIFO drives the ring through growth and wraparound
// against a plain slice model: order, depth and drain must agree.
func TestSockQueueFIFO(t *testing.T) {
	reqs := make([]*workload.Request, 200)
	for i := range reqs {
		reqs[i] = &workload.Request{ID: uint64(i)}
	}
	var q sockQueue
	var model []*workload.Request
	next := 0
	// Uneven push/pop runs so head wraps at every buffer size.
	for round := 0; round < 40; round++ {
		for i := 0; i < round%7+3 && next < len(reqs); i++ {
			q.push(reqs[next])
			model = append(model, reqs[next])
			next++
		}
		for i := 0; i < round%5+1 && len(model) > 0; i++ {
			if got, want := q.pop(), model[0]; got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got.ID, want.ID)
			}
			model = model[1:]
		}
		if q.n != len(model) {
			t.Fatalf("round %d: depth %d, want %d", round, q.n, len(model))
		}
	}
	out := q.drain()
	if len(out) != len(model) || q.n != 0 {
		t.Fatalf("drain returned %d of %d, %d left queued", len(out), len(model), q.n)
	}
	for i := range out {
		if out[i] != model[i] {
			t.Fatalf("drain[%d] = %d, want %d", i, out[i].ID, model[i].ID)
		}
	}
	if q.drain() != nil {
		t.Fatal("drain of an empty queue is not nil")
	}
}

// TestSockQueueSteadyStateAllocFree: once grown to its working depth,
// the ring cycles requests without allocating.
func TestSockQueueSteadyStateAllocFree(t *testing.T) {
	var q sockQueue
	r := &workload.Request{}
	for i := 0; i < 100; i++ {
		q.push(r)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			q.pop()
			q.push(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per 100 pop/push cycles, want 0", allocs)
	}
}
