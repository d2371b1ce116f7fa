package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"nmapsim/internal/cpu"
	"nmapsim/internal/governor"
	"nmapsim/internal/kernel"
	"nmapsim/internal/sim"
)

// span is one timed phase of a traced pass. Parent indexes the enclosing
// span in the tracer's list, -1 for a pass root.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// agg is a count-and-total-ns aggregate for one wrapped boundary, so a
// boundary crossed millions of times keeps the trace bounded.
type agg struct {
	Calls int64 `json:"calls"`
	Ns    int64 `json:"ns"`
}

func (a *agg) since(t time.Time) {
	a.Calls++
	a.Ns += int64(time.Since(t))
}

// tracer records the spans, boundary aggregates, engine queue samples
// and CPU profiles of the traced passes of one invocation. Spans and
// aggregates stay in memory until flush writes them out.
type tracer struct {
	t0    time.Time
	Spans []span `json:"spans"`
	// Idle, Governor and Listener aggregate the kernel.IdlePolicy
	// SelectState, governor.CPUGovernor Decide and NMAP
	// kernel.NAPIListener boundaries.
	Idle     agg `json:"idle_select"`
	Governor agg `json:"governor_decide"`
	Listener agg `json:"nmap_listener"`
	// PendingMax is the largest sim.Engine.Pending() seen at a slice
	// boundary.
	PendingMax int `json:"pending_max"`

	dir, stem string
	profiles  int
	ledger    cpuLedger
	prof      *bytes.Buffer
}

func newTracer(dir, stem string) *tracer {
	return &tracer{t0: time.Now(), dir: dir, stem: stem, ledger: cpuLedger{}}
}

// begin opens a span and returns its index. On a nil tracer (an
// untraced pass) it records nothing and returns -1.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.Spans = append(t.Spans, span{Name: name, Parent: parent, StartNs: int64(time.Since(t.t0))})
	return len(t.Spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t != nil && id >= 0 {
		t.Spans[id].EndNs = int64(time.Since(t.t0))
	}
}

// fork returns a tracer for one cell running on its own goroutine: same
// clock, its own spans and aggregates, merged back by join.
func (t *tracer) fork() *tracer { return &tracer{t0: t.t0} }

// join appends c's spans to t, hanging c's root spans under parent, and
// adds its aggregates and queue samples.
func (t *tracer) join(c *tracer, parent int) {
	off := len(t.Spans)
	for _, s := range c.Spans {
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += off
		}
		t.Spans = append(t.Spans, s)
	}
	for _, a := range [][2]*agg{{&t.Idle, &c.Idle}, {&t.Governor, &c.Governor}, {&t.Listener, &c.Listener}} {
		a[0].Calls += a[1].Calls
		a[0].Ns += a[1].Ns
	}
	t.PendingMax = max(t.PendingMax, c.PendingMax)
}

// spanTotal sums the durations of every span with the given name.
func (t *tracer) spanTotal(name string) time.Duration {
	var d int64
	for _, s := range t.Spans {
		if s.Name == name {
			d += s.EndNs - s.StartNs
		}
	}
	return time.Duration(d)
}

// samplePending records the engine's queue length at a slice boundary.
func (t *tracer) samplePending(eng *sim.Engine) {
	if n := eng.Pending(); n > t.PendingMax {
		t.PendingMax = n
	}
}

// startProfile begins a CPU profile of one pass's simulated part. Every
// caller defers stopProfile, so the profile is flushed to disk on every
// exit path, a failed or panicking pass included.
func (t *tracer) startProfile() error {
	t.prof = &bytes.Buffer{}
	if err := pprof.StartCPUProfile(t.prof); err != nil {
		t.prof = nil
		return fmt.Errorf("start CPU profile: %w", err)
	}
	return nil
}

// stopProfile stops the running CPU profile, writes it next to the span
// file and adds its samples to the per-package ledger. It is a no-op
// when no profile is running.
func (t *tracer) stopProfile() error {
	if t.prof == nil {
		return nil
	}
	pprof.StopCPUProfile()
	data := t.prof.Bytes()
	t.prof = nil
	t.profiles++
	path := filepath.Join(t.dir, fmt.Sprintf("%s.pass%d.pprof", t.stem, t.profiles))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write CPU profile: %w", err)
	}
	return t.ledger.add(data)
}

// measure runs fn as the simulated part of a traced pass: under a "cells"
// span, with a CPU profile (flushed on every exit path) and the heap
// allocated meanwhile charged to the pass.
func (t *tracer) measure(p *pass, root int, fn func(parent int)) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := t.startProfile(); err != nil {
		return err
	}
	defer t.stopProfile()
	t1 := time.Now()
	cells := t.begin("cells", root)
	fn(cells)
	t.end(cells)
	p.run = time.Since(t1)
	runtime.ReadMemStats(&after)
	p.counts.allocBytes = after.TotalAlloc - before.TotalAlloc
	return t.stopProfile()
}

// flush writes the spans and aggregates as JSON.
func (t *tracer) flush() error {
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(t.dir, t.stem+".spans.json"), data, 0o644)
}

// timedIdle wraps an idle policy and times its SelectState calls.
type timedIdle struct {
	kernel.IdlePolicy
	a *agg
}

func (w timedIdle) SelectState(coreID int) cpu.CState {
	t := time.Now()
	s := w.IdlePolicy.SelectState(coreID)
	w.a.since(t)
	return s
}

// timedGovernor wraps a cpufreq governor and times its Decide calls.
type timedGovernor struct {
	governor.CPUGovernor
	a *agg
}

func (w timedGovernor) Decide(coreID int, u governor.UtilSample) int {
	t := time.Now()
	p := w.CPUGovernor.Decide(coreID, u)
	w.a.since(t)
	return p
}

// timedListener wraps a NAPI listener and times every event it is sent.
type timedListener struct {
	l kernel.NAPIListener
	a *agg
}

func (w timedListener) InterruptArrived(coreID int) {
	t := time.Now()
	w.l.InterruptArrived(coreID)
	w.a.since(t)
}

func (w timedListener) PacketsProcessed(coreID int, mode kernel.Mode, n int) {
	t := time.Now()
	w.l.PacketsProcessed(coreID, mode, n)
	w.a.since(t)
}

func (w timedListener) KsoftirqdWake(coreID int) {
	t := time.Now()
	w.l.KsoftirqdWake(coreID)
	w.a.since(t)
}

func (w timedListener) KsoftirqdSleep(coreID int) {
	t := time.Now()
	w.l.KsoftirqdSleep(coreID)
	w.a.since(t)
}
