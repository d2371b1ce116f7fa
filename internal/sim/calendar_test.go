package sim

import (
	"math/bits"
	"testing"
)

// TestCancelChurnDoesNotThrashCalibration reproduces the hedged-fleet
// event mix: a few thousand far-future client timeouts parked in the
// overflow ladder, under steady short-horizon churn in which every
// request arms a hedge timer and its completion cancels it while the
// timer is still rung-resident. The rung count is sized by the whole
// population (ladder included), so a shrink check that counted rung
// residents alone would fire on every such cancel and rebuild the queue
// in O(n) each time. Under the one population rule, rebuilds are bounded
// by the periodic drift check plus O(log n) growth steps.
func TestCancelChurnDoesNotThrashCalibration(t *testing.T) {
	e := NewEngine()
	const timeouts = 4000
	rtos := make([]Event, timeouts)
	for i := range rtos {
		rtos[i] = e.Schedule(Second+Duration(i)*Microsecond, func() {})
	}

	const requests = 20000
	issued, cancels := 0, 0
	var issue func()
	issue = func() {
		issued++
		hedge := e.Schedule(50*Microsecond, func() {})
		e.Schedule(10*Microsecond, func() {
			if hedge.Cancel() {
				cancels++
			}
		})
		if issued < requests {
			e.Schedule(Microsecond, issue)
		}
	}
	e.Schedule(0, issue)
	e.Run(Time(requests+100) * Time(Microsecond))

	if cancels < requests*9/10 {
		t.Fatalf("only %d of %d hedge timers were cancelled: the churn did not exercise the cancel path", cancels, requests)
	}
	if over := len(e.over); over < timeouts*9/10 {
		t.Fatalf("only %d of %d timeouts sit in the overflow ladder: the mix lost its shape", over, timeouts)
	}
	limit := e.Fired()/4096 + 2*uint64(bits.Len(timeouts)) + 4
	if e.rebuilds > limit {
		t.Fatalf("%d calendar rebuilds for %d cancels and %d fired events (limit %d): rebuilds track cancels, not population changes",
			e.rebuilds, cancels, e.Fired(), limit)
	}

	for _, h := range rtos {
		h.Cancel()
	}
	if p := e.Pending(); p != 0 {
		t.Fatalf("%d events pending after cancelling every timeout", p)
	}
}

// TestShrinkWaitsForCancelOrPeriodicCheck: pops that drop the live
// count below an eighth of the rung count do not rebuild, and neither
// does the next enqueue — rebuilding there would size the window at the
// trough just as a burst arrives. The next cancel does shrink the array.
func TestShrinkWaitsForCancelOrPeriodicCheck(t *testing.T) {
	e := NewEngine()
	const n = 1000
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = e.Schedule(Duration(i+1)*Microsecond, func() {})
	}
	nb := len(e.buckets)
	e.Run(Time(n-50) * Time(Microsecond))
	if p := e.Pending(); p >= nb/8 {
		t.Fatalf("%d events pending on %d rungs: the pops did not reach the shrink threshold", p, nb)
	}
	rb := e.rebuilds
	e.Schedule(Millisecond, func() {})
	if e.rebuilds != rb || len(e.buckets) != nb {
		t.Fatalf("an enqueue rebuilt the queue (%d -> %d rungs) for a shrink left by pops", nb, len(e.buckets))
	}
	evs[n-1].Cancel()
	if e.rebuilds != rb+1 || len(e.buckets) >= nb {
		t.Fatalf("a cancel below the shrink threshold left %d rungs after %d rebuilds (was %d rungs)",
			len(e.buckets), e.rebuilds-rb, nb)
	}
}
