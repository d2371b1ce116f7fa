package sim

// This file implements the engine's pending-event structure: a calendar
// queue (time-bucketed rungs over a circular array) with an overflow
// ladder for far-future events. It replaced the PR-1 hand-inlined binary
// heap once profiles showed the heap's sift chains (pointer-chasing
// (at, seq) compares over O(log n) levels on every schedule, fire and
// cancel) eating ~45% of a figure run's CPU. The calendar makes the
// short-horizon steady state — ITR ticks, poll passes, exec completions,
// all scheduled microseconds ahead — O(1) amortized per operation:
//
//   - enqueue: one shift to find the rung, one list push — O(1) and
//     allocation-free (the rungs are intrusive doubly-linked lists over
//     the pooled records, so arrival clumps can never force a slice to
//     grow). Far-future events (watchdogs, hard-fault schedules,
//     pre-sampled arrivals past the window) go to the overflow ladder, a
//     small slot-tracked binary heap, and migrate into rungs as the
//     window advances.
//   - dequeue-min: a cursor walks the rungs; each rung holds ~1 event at
//     the calibrated width, so finding the minimum is a short local scan.
//     The cursor never re-visits drained rungs, making the walk O(1)
//     amortized.
//   - cancel: swap-with-last inside the event's rung — O(1), eager, and
//     handle-exact (the generation check in Event is unchanged).
//
// Firing order is exactly the heap's: the strict (at, seq) minimum fires
// every step, so a seeded run is byte-for-byte identical under either
// structure (pinned by the equivalence property test and the repo's
// determinism gates).
//
// Same-instant batching: after a pop, the next event of the same virtual
// rung — in particular the rest of a same-timestamp batch, which always
// shares the rung — is located by one local scan and cached, so draining
// a burst of simultaneous events never touches the cursor, the window or
// the overflow ladder.
//
// Calibration: the queue sizes itself to the observed event-horizon
// distribution. Enqueues feed an integer EWMA of the scheduling horizon
// (ev.at - now); the rung count tracks the live event count and the
// rung width tracks the average inter-event gap (horizon over live
// count), the classic calendar-queue operating point of ~1 event per
// occupied rung.
//
// One population rule governs every size-driven rebuild: the live
// count n — rung residents plus the overflow ladder (Pending), the same
// count calibrate sizes by — must stay inside the hysteresis band
// nb/8 <= n <= 2*nb around the rung count nb. A rebuild picks nb so
// that nb/4 < n <= nb/2 (or clamps at a bound), inside the band, so it
// can never leave the queue already meeting its own trigger: the next
// size rebuild needs the population to halve or to quadruple, which
// keeps rebuilds amortized O(1) per operation however the live events
// split between rungs and ladder (a fleet's far-future RTO timers sit
// in the ladder but are sized for, so a trigger counting rung residents
// alone would fire on every cancel). Each side of the band is checked
// where n moves that way: the grow side on every enqueue (the only
// operation that raises n; a window slide only moves events from the
// ladder into rungs), the shrink side on every cancel and, for pops,
// at the periodic check, which keeps the fire path free of checks. An
// enqueue does not rebuild for a shrink left behind by earlier pops:
// that would size the window at the trough just as a burst arrives.
// The periodic check also rebuilds on width drift (ideal width ≥4x
// off). Rebuilds run in O(n) and are driven purely by queue state —
// never by wall clock — so they are deterministic and replay-safe.
//
// Occupancy bitmap: one uint64 word summarizes 64 rungs (bit set ⇔ rung
// list non-empty), maintained by the O(1) rung link/unlink paths. The
// cursor walk in peekMin jumps straight to the next occupied rung with
// bits.TrailingZeros64 instead of probing rung heads one by one, and the
// calibration rebuild collects residents by iterating set bits, so both
// scans skip empty rungs in O(1) per word instead of O(1) per rung. The
// invariants: (1) occ bit p is set iff buckets[p] != nil, restored
// before every return from the mutating paths; (2) the bitmap indexes
// physical rungs, not virtual buckets — during a cursor-pullback
// transient (window span > rung count) a set bit may point at a rung
// whose residents all belong to a later lap, which the year check in
// rungMin filters exactly as it did for the probed walk.

import "math/bits"

const (
	// Rung-count bounds. minBuckets keeps the window wide enough that
	// tiny queues never thrash the overflow ladder; maxBuckets caps the
	// footprint (32768 head pointers = 256KB) for degenerate backlogs.
	minBuckets = 1 << 8
	maxBuckets = 1 << 15
	// Rung-width bounds, as log2 nanoseconds: 16ns to ~4.2ms.
	minShift = 4
	maxShift = 22
	// Horizon samples are clamped to ~67ms so a lone watchdog scheduled
	// seconds out cannot yank the EWMA (and with it the rung width) away
	// from the microsecond-scale steady state.
	maxHorizonSample = 1 << 26
	// recalPeriod masks the fired counter for the periodic drift check.
	recalPeriod = 1<<12 - 1
)

// Sentinel values for event.bkt.
const (
	bktNone     = -1 // not queued
	bktOverflow = -2 // in the overflow ladder; slot is the heap index
)

// initCalendar sets the queue to its startup geometry: 256 rungs of
// 2.048µs (a 524µs window) and a 32µs horizon prior, which fits the
// NIC/softirq tick pattern before the first calibration has data.
func (e *Engine) initCalendar() {
	e.allRungs = make([]*event, minBuckets)
	e.allOcc = make([]uint64, minBuckets/64)
	e.buckets = e.allRungs
	e.occ = e.allOcc
	e.mask = minBuckets - 1
	e.shift = 11
	e.ewmaH = 32 << 10
	e.curVb = 0
	e.winEnd = minBuckets
}

// enqueue places a filled event record into the calendar (or the
// overflow ladder) and maintains the cached minimum and the horizon
// EWMA. O(1) outside calibration.
func (e *Engine) enqueue(ev *event) {
	if e.buckets == nil {
		e.initCalendar()
	}
	vb := int64(ev.at) >> e.shift
	if vb >= e.winEnd {
		// Overflow pushes never touch minEv: the cached minimum is
		// always rung-resident, and an overflow event (vb >= winEnd)
		// can never precede one.
		e.overPush(ev)
	} else {
		if vb < e.curVb {
			// Scheduling behind the cursor (possible between Run calls,
			// after the cursor walked ahead to a far next event): pull
			// the cursor back. The year checks in the scans keep rung
			// sharing during this transient exact.
			e.curVb = vb
		}
		e.bucketPut(ev, vb)
		if m := e.minEv; m != nil {
			if less(ev, m) {
				e.minEv = ev
			}
		} else if e.nshort == 1 && len(e.over) == 0 {
			// ev is the only pending event, hence the minimum by
			// definition. minEv==nil otherwise means "invalidated", so
			// this is the one place the cache can be seeded without a
			// scan.
			e.minEv = ev
		}
	}
	if nb := len(e.buckets); e.Pending() > 2*nb && nb < maxBuckets {
		e.calibrate()
	}
	// Horizon EWMA, sampled every 8th event: the drift check only reads
	// it every 4096 fires, so a 1-in-8 systematic sample (seq-keyed —
	// a pure function of the event stream, hence deterministic) tracks
	// the distribution just as well at an eighth of the per-enqueue
	// cost.
	if ev.seq&7 == 0 {
		h := int64(ev.at - e.now)
		if h > maxHorizonSample {
			h = maxHorizonSample
		}
		e.ewmaH += (h - e.ewmaH) >> 4
	}
}

// bucketPut pushes ev onto the rung list for virtual bucket vb. Pure
// pointer writes on pooled records — never allocates. An empty rung
// turning occupied sets its occupancy bit.
func (e *Engine) bucketPut(ev *event, vb int64) {
	p := int32(vb & e.mask)
	ev.bkt = p
	ev.prev = nil
	ev.next = e.buckets[p]
	if ev.next != nil {
		ev.next.prev = ev
	} else {
		e.occ[p>>6] |= 1 << uint(p&63)
	}
	e.buckets[p] = ev
	e.nshort++
}

// bucketRemove unlinks ev from its rung list in O(1), clearing the
// rung's occupancy bit when the last resident leaves.
func (e *Engine) bucketRemove(ev *event) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		e.buckets[ev.bkt] = ev.next
		if ev.next == nil {
			p := ev.bkt
			e.occ[p>>6] &^= 1 << uint(p&63)
		}
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.next = nil
	ev.prev = nil
	e.nshort--
	ev.bkt = bktNone
}

// dequeue removes a pending event wherever it lives (cancel path).
func (e *Engine) dequeue(ev *event) {
	if ev == e.minEv {
		e.minEv = nil
	}
	if ev.bkt == bktOverflow {
		e.overRemove(int(ev.slot))
	} else {
		e.bucketRemove(ev)
	}
	if e.underfull() {
		e.calibrate()
	}
}

// underfull is the shrink side of the population rule (see the file
// comment): the live count — Pending, rung residents plus the overflow
// ladder, exactly what calibrate sizes by — has fallen below an eighth
// of the rung count, and the rung floor still allows a shrink.
func (e *Engine) underfull() bool {
	nb := len(e.buckets)
	return e.Pending() < nb/8 && nb > minBuckets
}

// peekMin returns the strict (at, seq) minimum without removing it, or
// nil when the queue is empty. The result is cached; the common case
// after a pop is a single pointer load.
func (e *Engine) peekMin() *event {
	if e.minEv != nil {
		return e.minEv
	}
	if e.nshort == 0 {
		if len(e.over) == 0 {
			return nil
		}
		// Rungs are dry: jump the cursor to the earliest far event and
		// re-open the window there, migrating everything now in range.
		e.curVb = int64(e.over[0].at) >> e.shift
		e.advanceWindow()
	}
	for {
		if e.minEv != nil { // a calibration inside advanceWindow found it
			return e.minEv
		}
		if e.winEnd-e.curVb < int64(len(e.buckets))/2 {
			// Hysteresis: let the window shrink to half the rung count
			// before sliding it, so the slide (and its overflow check)
			// runs once per nb/2 cursor steps instead of every step.
			e.advanceWindow()
			continue
		}
		// Jump the cursor to the next occupied rung via the occupancy
		// bitmap. Rung-resident events all have curVb <= vb < winEnd, so
		// with the window spanning at most one lap the jump target is
		// exactly the next virtual bucket holding events; during a
		// cursor-pullback transient (span > one lap) the rung may hold
		// only later-lap residents, which rungMin filters — the cursor
		// then steps past and rescans.
		d := e.occNext(e.curVb & e.mask)
		if d < 0 {
			// No rung is occupied: everything pending lives in the
			// overflow ladder. Re-open the window at its earliest event.
			e.curVb = int64(e.over[0].at) >> e.shift
			e.advanceWindow()
			continue
		}
		vb := e.curVb + d
		if x := e.buckets[int32(vb&e.mask)]; x != nil {
			if best := e.rungMin(x, vb); best != nil {
				e.curVb = vb
				e.minEv = best
				return best
			}
		}
		e.curVb = vb + 1
	}
}

// occNext returns the circular distance (in rungs) from physical rung p
// to the nearest occupied rung at or after it, or -1 when every rung is
// empty. One shifted word test resolves the common case; otherwise the
// scan touches one word per 64 rungs.
func (e *Engine) occNext(p int64) int64 {
	w := p >> 6
	off := uint(p & 63)
	if x := e.occ[w] >> off; x != 0 {
		return int64(bits.TrailingZeros64(x))
	}
	nw := int64(len(e.occ))
	for i := int64(1); i <= nw; i++ {
		wi := w + i
		if wi >= nw {
			wi -= nw
		}
		if x := e.occ[wi]; x != 0 {
			return i<<6 - int64(off) + int64(bits.TrailingZeros64(x))
		}
	}
	return -1
}

// rungMin returns the (at, seq) minimum among the events in rung list x
// that belong to virtual bucket vb, or nil if every resident is foreign.
// The year check per event is only needed while a cursor pullback has
// stretched the span beyond one lap of the circular array (winEnd-curVb
// > nb) — in the steady state each rung holds a single virtual bucket
// and the scan is a plain list minimum.
func (e *Engine) rungMin(x *event, vb int64) *event {
	var best *event
	if e.winEnd-e.curVb <= int64(len(e.buckets)) {
		for ; x != nil; x = x.next {
			if best == nil || less(x, best) {
				best = x
			}
		}
		return best
	}
	for ; x != nil; x = x.next {
		if int64(x.at)>>e.shift != vb {
			continue // foreign year sharing the rung (cursor-pullback transient)
		}
		if best == nil || less(x, best) {
			best = x
		}
	}
	return best
}

// advanceWindow slides the insert window forward to the cursor and
// migrates overflow events that fell into range. Each event migrates at
// most once per calibration epoch, so the cost is amortized O(1).
// Migration moves events from the ladder into rungs without changing
// the live count, so a slide never calls for a size rebuild.
func (e *Engine) advanceWindow() {
	e.winEnd = e.curVb + int64(len(e.buckets))
	for len(e.over) > 0 && int64(e.over[0].at)>>e.shift < e.winEnd {
		ev := e.overRemove(0)
		e.bucketPut(ev, int64(ev.at)>>e.shift)
	}
}

// maybeRecalibrate is the periodic drift check (every 4096 fires): a
// rebuild runs when pops have left the queue underfull (the fire path
// never checks it itself) or the rung width is ≥4x off the horizon
// EWMA's ideal. Pure queue state, no wall clock — deterministic.
func (e *Engine) maybeRecalibrate() {
	ideal := int(e.idealShift(int64(e.Pending())))
	d := ideal - int(e.shift)
	if d < 0 {
		d = -d
	}
	if d >= 2 || e.underfull() {
		e.calibrate()
	}
}

// idealShift picks the rung width (log2 ns) tracking the average
// inter-event gap (horizon EWMA over live count), the classic
// calendar-queue operating point: ~1 event per occupied rung. The
// balance is asymmetric — visiting an empty rung is one head load and a
// nil test, while every event resident in a scanned rung costs a
// pointer chase plus a year check — so the width must err narrow, but
// not so narrow that pops walk long runs of empties (sizing against the
// rung count with its 256 floor did exactly that: a near-empty queue
// got rungs gap/64 wide and every pop walked dozens of them).
func (e *Engine) idealShift(n int64) uint {
	if n < 1 {
		n = 1
	}
	want := e.ewmaH
	s := uint(minShift)
	for s < maxShift && n<<s < want {
		s++
	}
	return s
}

// calibrate rebuilds the calendar to the current event population:
// rung count tracking the live count, width from the horizon EWMA, the
// window re-anchored at the earliest pending event. O(n); event records
// are relinked in place and the rung-head array only grows past its
// high-water mark, so steady-state rebuilds never allocate.
func (e *Engine) calibrate() {
	e.rebuilds++
	all := e.scratch[:0]
	// The occupancy bitmap names exactly the non-empty rungs, so the
	// collection pass touches one word per 64 rungs plus one probe per
	// resident list instead of every rung head.
	for w, bitsW := range e.occ {
		for bitsW != 0 {
			b := bits.TrailingZeros64(bitsW)
			bitsW &= bitsW - 1
			i := w<<6 + b
			for x := e.buckets[i]; x != nil; {
				next := x.next
				x.next = nil
				x.prev = nil
				all = append(all, x)
				x = next
			}
			e.buckets[i] = nil
		}
		e.occ[w] = 0
	}
	all = append(all, e.over...)
	for j := range e.over {
		e.over[j] = nil
	}
	e.over = e.over[:0]

	nb := minBuckets
	for nb < maxBuckets && nb < 2*len(all) {
		nb <<= 1
	}
	if nb > len(e.allRungs) {
		e.allRungs = make([]*event, nb)
		e.allOcc = make([]uint64, nb/64)
	}
	e.buckets = e.allRungs[:nb] // shrink is a reslice of the high-water backing
	e.occ = e.allOcc[:nb/64]
	e.mask = int64(nb - 1)
	e.shift = e.idealShift(int64(len(all)))

	lo := e.now
	for _, ev := range all {
		if ev.at < lo {
			lo = ev.at
		}
	}
	e.curVb = int64(lo) >> e.shift
	e.winEnd = e.curVb + int64(nb)
	e.nshort = 0
	e.minEv = nil
	for _, ev := range all {
		vb := int64(ev.at) >> e.shift
		if vb >= e.winEnd {
			e.overPush(ev)
		} else {
			e.bucketPut(ev, vb)
		}
		if e.minEv == nil || less(ev, e.minEv) {
			e.minEv = ev
		}
	}
	for j := range all {
		all[j] = nil
	}
	e.scratch = all[:0]
}

// The overflow ladder: a slot-tracked binary min-heap by (at, seq). It
// holds only events beyond the calendar window — watchdog deadlines,
// scheduled hard faults, pre-sampled arrivals past the horizon — so it
// stays small and its O(log n) is paid rarely.

func (e *Engine) overPush(ev *event) {
	ev.bkt = bktOverflow
	ev.slot = int32(len(e.over))
	e.over = append(e.over, ev)
	e.overUp(int(ev.slot))
}

func (e *Engine) overUp(i int) {
	h := e.over
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].slot = int32(i)
		i = parent
	}
	h[i] = ev
	ev.slot = int32(i)
}

// overDown restores the heap property below i and reports whether the
// element moved.
func (e *Engine) overDown(i int) bool {
	h := e.over
	n := len(h)
	ev := h[i]
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && less(h[r], h[l]) {
			m = r
		}
		if !less(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].slot = int32(i)
		i = m
	}
	h[i] = ev
	ev.slot = int32(i)
	return i != start
}

// overRemove unlinks the event at ladder index i in O(log n).
func (e *Engine) overRemove(i int) *event {
	h := e.over
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].slot = int32(i)
	}
	h[n] = nil
	e.over = h[:n]
	if i < n {
		if !e.overDown(i) {
			e.overUp(i)
		}
	}
	ev.slot = -1
	ev.bkt = bktNone
	return ev
}
