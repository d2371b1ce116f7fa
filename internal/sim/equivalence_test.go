package sim

import (
	"math/rand"
	"testing"
)

// This file pins the calendar queue to the seed engine's binary-heap
// scheduler with a randomized equivalence test: both schedulers are
// driven with identical schedule / cancel / reschedule streams —
// including stale-handle no-ops, same-instant bursts, far-future
// overflow events, pool reuse and short-timer cancel churn — and must
// produce identical firing order and Pending() counts at every step.
// Each seed's stream runs in three regimes (eqRegime): from an empty
// queue at the rung floor, under the hedged-fleet mix of thousands of
// ladder-resident timeouts that hold the rung array at thousands of
// rungs, and under that mix released mid-stream so the cancel path
// shrinks the array back to the floor.
//
// refHeap below is the seed's hand-inlined binary heap (O(log n) sift,
// eager removeAt by stored index, pooled records with generation-checked
// handles), kept as an executable specification of the (at, seq) total
// order the engine promises.

type refEvent struct {
	at    Time
	seq   uint64
	id    int
	chain bool
	idx   int32
	gen   uint32
}

type refHandle struct {
	ev  *refEvent
	gen uint32
}

func (h refHandle) pending() bool { return h.ev != nil && h.ev.gen == h.gen }

type refHeap struct {
	now  Time
	seq  uint64
	heap []*refEvent
	free []*refEvent
}

func (r *refHeap) alloc() *refEvent {
	if n := len(r.free); n > 0 {
		ev := r.free[n-1]
		r.free = r.free[:n-1]
		return ev
	}
	return &refEvent{idx: -1}
}

func (r *refHeap) recycle(ev *refEvent) {
	ev.idx = -1
	ev.gen++
	r.free = append(r.free, ev)
}

func refLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (r *refHeap) siftUp(i int) {
	h := r.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !refLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = int32(i)
		i = parent
	}
	h[i] = ev
	ev.idx = int32(i)
}

func (r *refHeap) siftDown(i int) bool {
	h := r.heap
	n := len(h)
	ev := h[i]
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if rr := l + 1; rr < n && refLess(h[rr], h[l]) {
			m = rr
		}
		if !refLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].idx = int32(i)
		i = m
	}
	h[i] = ev
	ev.idx = int32(i)
	return i != start
}

func (r *refHeap) removeAt(i int) *refEvent {
	h := r.heap
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].idx = int32(i)
	}
	h[n] = nil
	r.heap = h[:n]
	if i < n {
		if !r.siftDown(i) {
			r.siftUp(i)
		}
	}
	ev.idx = -1
	return ev
}

func (r *refHeap) schedule(at Time, id int, chain bool) refHandle {
	if at < r.now {
		at = r.now
	}
	ev := r.alloc()
	ev.at = at
	ev.seq = r.seq
	ev.id = id
	ev.chain = chain
	r.seq++
	ev.idx = int32(len(r.heap))
	r.heap = append(r.heap, ev)
	r.siftUp(int(ev.idx))
	return refHandle{ev: ev, gen: ev.gen}
}

func (r *refHeap) cancel(h refHandle) bool {
	if !h.pending() {
		return false
	}
	r.recycle(r.removeAt(int(h.ev.idx)))
	return true
}

func (r *refHeap) popMin() *refEvent {
	if len(r.heap) == 0 {
		return nil
	}
	return r.removeAt(0)
}

// pairH holds the two handles issued for the same logical event. Chained
// events fill the two sides at different moments (real during Run, ref
// during the model's drain), so each side is tracked separately.
type pairH struct {
	ev    Event
	rh    refHandle
	evSet bool
	rhSet bool
}

type eqTrial struct {
	t       *testing.T
	eng     *Engine
	ref     *refHeap
	live    map[int]*pairH
	liveIDs []int // deterministic iteration order for random picks
	stale   []*pairH
	got     []int // real firing order since trial start
	want    []int // reference firing order since trial start
	argFn   func(any)
}

func chainDelay(id int) Duration {
	return Duration(uint64(id) * 2654435761 % 5000)
}

func (tr *eqTrial) liveAdd(id int) *pairH {
	p, ok := tr.live[id]
	if !ok {
		p = &pairH{}
		tr.live[id] = p
		tr.liveIDs = append(tr.liveIDs, id)
	}
	return p
}

func (tr *eqTrial) liveDrop(id int) {
	p := tr.live[id]
	delete(tr.live, id)
	for i, v := range tr.liveIDs {
		if v == id {
			tr.liveIDs[i] = tr.liveIDs[len(tr.liveIDs)-1]
			tr.liveIDs = tr.liveIDs[:len(tr.liveIDs)-1]
			break
		}
	}
	tr.stale = append(tr.stale, p)
}

// mkFn builds the real engine's callback: record the firing, and for
// chained events schedule a deterministic follow-on from inside the
// dispatch loop (the pattern every kernel/NIC component uses).
func (tr *eqTrial) mkFn(id int, chain bool) func() {
	return func() {
		tr.got = append(tr.got, id)
		if chain {
			cid := 1_000_000 + id
			ev := tr.eng.Schedule(chainDelay(id), tr.mkFn(cid, false))
			p := tr.liveAdd(cid)
			p.ev, p.evSet = ev, true
		}
	}
}

// schedule issues the same event to both schedulers.
func (tr *eqTrial) schedule(at Time, id int, chain bool) {
	p := tr.liveAdd(id)
	if !chain && id%3 == 0 {
		// Exercise the arg-carrying form on a third of the plain events.
		p.ev = tr.eng.AtArg(at, tr.argFn, id)
	} else {
		p.ev = tr.eng.At(at, tr.mkFn(id, chain))
	}
	p.evSet = true
	p.rh = tr.ref.schedule(at, id, chain)
	p.rhSet = true
}

// advance runs both schedulers to instant T and checks the firing
// streams and queue depths agree.
func (tr *eqTrial) advance(until Time) {
	mark := len(tr.got)
	tr.eng.Run(until)

	r := tr.ref
	for len(r.heap) > 0 && r.heap[0].at <= until {
		ev := r.popMin()
		r.now = ev.at
		tr.want = append(tr.want, ev.id)
		if ev.chain {
			cid := 1_000_000 + ev.id
			rh := r.schedule(r.now+Time(chainDelay(ev.id)), cid, false)
			p := tr.liveAdd(cid)
			p.rh, p.rhSet = rh, true
		}
		r.recycle(ev)
	}
	if r.now < until {
		r.now = until
	}

	if len(tr.got) != len(tr.want) {
		tr.t.Fatalf("advance(%d): engine fired %d events, reference %d",
			until, len(tr.got)-mark, len(tr.want)-mark)
	}
	for i := mark; i < len(tr.got); i++ {
		if tr.got[i] != tr.want[i] {
			tr.t.Fatalf("firing order diverges at event %d: engine id=%d, reference id=%d",
				i, tr.got[i], tr.want[i])
		}
	}
	// Retire fired pairs and verify their handles went stale together.
	for i := mark; i < len(tr.got); i++ {
		id := tr.got[i]
		p := tr.live[id]
		if p == nil || !p.evSet || !p.rhSet {
			tr.t.Fatalf("fired id %d has incomplete handle pair", id)
		}
		if p.ev.Pending() || p.rh.pending() {
			tr.t.Fatalf("id %d fired but a handle still reports pending (engine=%v ref=%v)",
				id, p.ev.Pending(), p.rh.pending())
		}
		tr.liveDrop(id)
	}
	tr.checkPending()
}

func (tr *eqTrial) checkPending() {
	if ep, rp := tr.eng.Pending(), len(tr.ref.heap); ep != rp {
		tr.t.Fatalf("Pending() diverges at now=%d: engine=%d reference=%d", tr.eng.Now(), ep, rp)
	}
}

// eqRegime sets the queue population an equivalence trial's op stream
// runs against.
type eqRegime struct {
	name     string
	timeouts int  // far-future client timeouts scheduled before the first op
	release  bool // cancel every remaining timeout halfway through the ops
}

func TestSchedulerEquivalence(t *testing.T) {
	regimes := []eqRegime{
		// From an empty queue: the stream stays at the 256-rung floor.
		{name: "empty"},
		// The hedged-fleet mix: the timeouts sit in the overflow ladder
		// until the final drain, but the rung array is sized for them, so
		// the whole stream runs at thousands of rungs under cancel churn.
		{name: "fleet", timeouts: 3000},
		// The fleet mix, then its timeouts all cancelled mid-stream: the
		// cancel path shrinks the array rebuild by rebuild back to the
		// floor, and the stream carries on at the small sizes.
		{name: "fleet-release", timeouts: 3000, release: true},
	}
	for _, seed := range []int64{1, 2, 7, 42, 1337} {
		for _, rg := range regimes {
			runEquivalenceTrial(t, seed, rg)
		}
	}
}

// runEquivalenceTrial drives one randomized lockstep trial in regime rg
// and checks the trial covered the rung counts the regime is for.
func runEquivalenceTrial(t *testing.T, seed int64, rg eqRegime) {
	rng := rand.New(rand.NewSource(seed))
	tr := &eqTrial{
		t:    t,
		eng:  NewEngine(),
		ref:  &refHeap{},
		live: map[int]*pairH{},
	}
	tr.argFn = func(a any) { tr.got = append(tr.got, a.(int)) }

	nextID := 0
	for i := 0; i < rg.timeouts; i++ {
		tr.schedule(Time(1<<30+rng.Int63n(1<<30)), nextID, false)
		nextID++
	}
	// Rung counts seen between ops, and how many ops found the array
	// shrunk since the one before.
	minNB, maxNB := len(tr.eng.buckets), len(tr.eng.buckets)
	prevNB, shrinks := len(tr.eng.buckets), 0
	var hedges []int // churn timers not yet cancelled, oldest first
	const ops = 8000
	for i := 0; i < ops; i++ {
		if rg.release && i == ops/2 {
			for id := 0; id < rg.timeouts; id++ {
				if p, ok := tr.live[id]; ok && p.ev.Pending() { // else cancelled by another op
					if !p.ev.Cancel() || !tr.ref.cancel(p.rh) {
						t.Fatalf("seed %d %s: timeout cancel of live id %d diverged", seed, rg.name, id)
					}
					tr.liveDrop(id)
					tr.checkPending()
				}
			}
		}
		nb := len(tr.eng.buckets)
		minNB, maxNB = min(minNB, nb), max(maxNB, nb)
		if nb < prevNB {
			shrinks++
		}
		prevNB = nb
		switch op := rng.Intn(18); {
		case op < 9: // schedule with a mixed-horizon delta
			var d int64
			switch rng.Intn(8) {
			case 0: // same-instant burst
				d = 0
			case 1, 2, 3: // short ITR/poll-tick horizon
				d = rng.Int63n(4096)
			case 4, 5: // medium
				d = rng.Int63n(1 << 16)
			case 6: // long
				d = rng.Int63n(1 << 22)
			default: // far future: lands in the overflow ladder
				d = rng.Int63n(1 << 30)
			}
			at := tr.eng.Now() + Time(d)
			if rng.Intn(32) == 0 {
				at = tr.eng.Now() - Time(rng.Int63n(1000)) // past: clamps to now
			}
			tr.schedule(at, nextID, rng.Intn(4) == 0)
			nextID++
		case op < 11: // cancel a random live event
			if len(tr.liveIDs) == 0 {
				continue
			}
			id := tr.liveIDs[rng.Intn(len(tr.liveIDs))]
			p := tr.live[id]
			ec, rc := p.ev.Cancel(), tr.ref.cancel(p.rh)
			if !ec || !rc {
				t.Fatalf("cancel of live id %d: engine=%v reference=%v", id, ec, rc)
			}
			tr.liveDrop(id)
			tr.checkPending()
		case op < 12: // reschedule: cancel + fresh schedule at a new instant
			if len(tr.liveIDs) == 0 {
				continue
			}
			id := tr.liveIDs[rng.Intn(len(tr.liveIDs))]
			p := tr.live[id]
			if p.ev.Cancel() != tr.ref.cancel(p.rh) {
				t.Fatalf("reschedule-cancel of id %d diverged", id)
			}
			tr.liveDrop(id)
			tr.schedule(tr.eng.Now()+Time(rng.Int63n(1<<18)), nextID, false)
			nextID++
		case op < 14: // stale-handle no-ops against fired/cancelled events
			if len(tr.stale) == 0 {
				continue
			}
			p := tr.stale[rng.Intn(len(tr.stale))]
			if p.evSet && (p.ev.Cancel() || p.ev.Pending() || p.ev.At() != 0) {
				t.Fatalf("stale engine handle is not inert")
			}
			if p.rhSet && p.rh.pending() {
				t.Fatalf("stale reference handle reports pending")
			}
		case op < 16: // advance virtual time, firing everything due
			tr.advance(tr.eng.Now() + Time(rng.Int63n(1<<20)))
		default: // hedge churn: arm a short timer, cancel the oldest still pending
			tr.schedule(tr.eng.Now()+Time(rng.Int63n(1<<14)), nextID, false)
			hedges = append(hedges, nextID)
			nextID++
			for len(hedges) > 0 {
				id := hedges[0]
				hedges = hedges[1:]
				if p, ok := tr.live[id]; ok && p.ev.Pending() { // else fired or cancelled by another op
					if !p.ev.Cancel() || !tr.ref.cancel(p.rh) {
						t.Fatalf("hedge cancel of live id %d diverged", id)
					}
					tr.liveDrop(id)
					tr.checkPending()
					break
				}
			}
			if rng.Intn(4) == 0 {
				tr.advance(tr.eng.Now() + Time(rng.Int63n(1<<12)))
			}
		}
	}

	switch {
	case rg.timeouts > 0 && !rg.release && minNB < 2048:
		t.Fatalf("seed %d %s: rung array down to %d rungs; the timeout mix should hold it at thousands for the whole stream",
			seed, rg.name, minNB)
	case rg.timeouts > 0 && rg.release && (shrinks == 0 || maxNB < 2048):
		t.Fatalf("seed %d %s: rung array ran at %d..%d rungs with %d shrinks; releasing the timeouts should shrink it from thousands",
			seed, rg.name, minNB, maxNB, shrinks)
	case (rg.timeouts == 0 || rg.release) && minNB != minBuckets:
		t.Fatalf("seed %d %s: rung array never reached the %d-rung floor (ran at %d..%d)",
			seed, rg.name, minBuckets, minNB, maxNB)
	}

	// Drain both queues completely and compare the full history.
	tr.advance(Time(1) << 62)
	if tr.eng.Pending() != 0 || len(tr.ref.heap) != 0 {
		t.Fatalf("seed %d: queues not empty after drain: engine=%d reference=%d",
			seed, tr.eng.Pending(), len(tr.ref.heap))
	}
	if len(tr.got) == 0 {
		t.Fatalf("seed %d: trial fired no events", seed)
	}
}
