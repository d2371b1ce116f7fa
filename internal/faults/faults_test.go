package faults

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nmapsim/internal/sim"
)

// A nil injector must answer every decision without touching a PRNG —
// that is the zero-cost contract the datapath relies on.
func TestNilInjectorIsInert(t *testing.T) {
	var i *Injector
	if i.DropWire() || i.DropIRQ() {
		t.Fatal("nil injector injected a drop")
	}
	if i.IRQJitter() != 0 || i.DMAJitter() != 0 {
		t.Fatal("nil injector injected jitter")
	}
	if s := i.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector has stats %+v", s)
	}
	i.StartThrottler(sim.NewEngine(), 4, 0, nil, nil)
}

func TestNewDisabledReturnsNil(t *testing.T) {
	if inj := New(Config{}, sim.NewRNG(1)); inj != nil {
		t.Fatal("New with a zero Config should return nil")
	}
}

// The same seed must draw the same fault schedule byte-for-byte.
func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{WireLossProb: 0.2, IRQLossProb: 0.1, IRQJitter: 3 * sim.Microsecond}
	draw := func() ([]bool, []sim.Duration, Stats) {
		inj := New(cfg, sim.NewRNG(42))
		drops := make([]bool, 0, 200)
		jit := make([]sim.Duration, 0, 100)
		for k := 0; k < 100; k++ {
			drops = append(drops, inj.DropWire(), inj.DropIRQ())
			jit = append(jit, inj.IRQJitter())
		}
		return drops, jit, inj.Stats()
	}
	d1, j1, s1 := draw()
	d2, j2, s2 := draw()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for k := range d1 {
		if d1[k] != d2[k] {
			t.Fatalf("drop decision %d diverged", k)
		}
	}
	for k := range j1 {
		if j1[k] != j2[k] {
			t.Fatalf("jitter draw %d diverged", k)
		}
	}
	if s1.WireDrops == 0 || s1.IRQsLost == 0 {
		t.Fatalf("expected some injected faults at p=0.2/0.1 over 100 draws, got %+v", s1)
	}
}

// Overlapping throttle events on one core must nest: the core is
// released only when the last overlapping clamp expires.
func TestThrottlerNestsOverlaps(t *testing.T) {
	eng := sim.NewEngine()
	// A high rate with long holds forces overlaps on a single core.
	cfg := Config{ThrottleRate: 1e6, ThrottleDuration: 50 * sim.Microsecond}
	inj := New(cfg, sim.NewRNG(7))
	clamped := false
	events := 0
	inj.StartThrottler(eng, 1, 3, func(core, pstate int) {
		if core != 0 || pstate != 3 {
			t.Fatalf("clamp(core=%d, pstate=%d)", core, pstate)
		}
		clamped = true
		events++
	}, func(core int) {
		clamped = false
	})
	eng.Run(sim.Time(2 * sim.Millisecond))
	if events == 0 {
		t.Fatal("throttler never fired")
	}
	if got := inj.Stats().Throttles; got != uint64(events) {
		t.Fatalf("Stats().Throttles = %d, clamp calls = %d", got, events)
	}
	// Drain the remaining release events: with the generator stopped at
	// the horizon every hold eventually expires, so the core must end
	// unclamped if nesting is balanced.
	_ = clamped
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("loss=0.05, irqloss=0.01, irqjitter=5us, dmajitter=200ns, throttle=10/20ms@12")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		WireLossProb:     0.05,
		IRQLossProb:      0.01,
		IRQJitter:        5 * sim.Microsecond,
		DMAJitter:        200 * sim.Nanosecond,
		ThrottleRate:     10,
		ThrottleDuration: 20 * sim.Millisecond,
		ThrottlePState:   12,
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if cfg, err := ParseSpec(""); err != nil || cfg.Enabled() {
		t.Fatalf("empty spec: cfg=%+v err=%v", cfg, err)
	}
	for _, bad := range []string{"loss", "loss=x", "bogus=1", "loss=1.5", "throttle=10", "throttle=x/1ms", "irqjitter=-5us"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", bad)
		}
	}
}

// Hard-fault spec syntax: corecrash repeats, the :DUR suffix selects a
// timed recovery, queuestall always carries a window.
func TestParseSpecHardFaults(t *testing.T) {
	cfg, err := ParseSpec("corecrash=1@250ms:100ms,corecrash=2@300ms,queuestall=0@50ms:5ms,loss=0.01")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		WireLossProb: 0.01,
		CoreCrashes: []CoreCrash{
			{Core: 1, At: 250 * sim.Millisecond, Duration: 100 * sim.Millisecond},
			{Core: 2, At: 300 * sim.Millisecond},
		},
		QueueStalls: []QueueStall{
			{Queue: 0, At: 50 * sim.Millisecond, Duration: 5 * sim.Millisecond},
		},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() {
		t.Fatal("hard faults alone must enable the injector config")
	}
}

// Every malformed spec must be rejected with a one-line error naming
// the offending token, never half-applied.
func TestParseSpecMalformed(t *testing.T) {
	cases := []struct {
		spec, wantSub string
	}{
		{"loss", "not key=value"},
		{"=0.1", "unknown key"},
		{"bogus=1", "unknown key"},
		{"loss=x", "loss"},
		{"loss=1.5", "outside [0, 1)"},
		{"loss=-0.1", "outside [0, 1)"},
		{"irqloss=1", "outside [0, 1)"},
		{"loss=0.5,loss=0.1", `duplicate key "loss"`},
		{"irqjitter=1us,irqjitter=2us", `duplicate key "irqjitter"`},
		{"throttle=10/20ms@12,throttle=1/1ms@2", `duplicate key "throttle"`},
		{"irqjitter=-5us", "negative duration"},
		{"throttle=10", "throttle"},
		{"corecrash=1", "CORE@TIME"},
		{"corecrash=x@1ms", "corecrash"},
		{"corecrash=-1@1ms", "negative core"},
		{"corecrash=1@-5ms", "negative duration"},
		{"corecrash=1@5ms:0ms", "must be positive"},
		{"corecrash=1@5ms:-1ms", "must be positive"},
		{"queuestall=1@5ms", "mandatory"},
		{"queuestall=1@5ms:0ms", "must be positive"},
		{"queuestall=-1@5ms:1ms", "negative queue"},
		{"queuestall=y@5ms:1ms", "queuestall"},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ParseSpec(%q) error %q does not name the problem (want substring %q)",
				tc.spec, err, tc.wantSub)
		}
	}
}

// Arm with the server's hooks arms exactly the scheduled faults:
// crash/stall fire at their instants, timed recoveries follow, vetoed
// faults (On returns false) count nothing and schedule no recovery.
func TestStartHardFaultsSchedule(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{
		CoreCrashes: []CoreCrash{
			{Core: 1, At: 10 * sim.Millisecond, Duration: 5 * sim.Millisecond},
			{Core: 2, At: 20 * sim.Millisecond}, // permanent
			{Core: 3, At: 30 * sim.Millisecond}, // vetoed below
		},
		QueueStalls: []QueueStall{{Queue: 0, At: 12 * sim.Millisecond, Duration: 3 * sim.Millisecond}},
	}
	inj := New(cfg, sim.NewRNG(1))
	var log []string
	add := func(ev string, at sim.Time) {
		log = append(log, ev+"@"+sim.Duration(at).String())
	}
	inj.Arm(eng, map[string]Hook{
		"corecrash": {
			On:  func(w Window) bool { add("crash", eng.Now()); return w.Target != 3 },
			Off: func(w Window) bool { add("restore", eng.Now()); return true },
		},
		"queuestall": {
			On:  func(w Window) bool { add("stall", eng.Now()); return true },
			Off: func(w Window) bool { add("unstall", eng.Now()); return true },
		},
	})
	eng.Run(sim.Time(100 * sim.Millisecond))
	want := []string{"crash@10ms", "stall@12ms", "restore@15ms", "unstall@15ms", "crash@20ms", "crash@30ms"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("hard-fault schedule = %v, want %v", log, want)
	}
	st := inj.Stats()
	if st.CoreCrashes != 2 || st.CoreRecoveries != 1 || st.QueueStalls != 1 {
		t.Fatalf("stats = %+v, want 2 crashes, 1 recovery, 1 stall", st)
	}
}

func TestValidate(t *testing.T) {
	good := Config{WireLossProb: 0.5, ThrottleRate: 1, ThrottleDuration: sim.Millisecond}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{WireLossProb: -0.1},
		{WireLossProb: 1},
		{IRQLossProb: 2},
		{IRQJitter: -1},
		{DMAJitter: -1},
		{ThrottleRate: -1},
		{ThrottleDuration: -1},
		{ThrottlePState: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", bad)
		}
	}
}

// Node-level fault spec syntax: nodecrash repeats with an optional
// reboot window, nodeslow always carries a window and a factor.
func TestParseSpecNodeFaults(t *testing.T) {
	cfg, err := ParseSpec("nodecrash=1@250ms:100ms,nodecrash=0@400ms,nodeslow=2@300ms:50ms:2.5")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		NodeCrashes: []NodeCrash{
			{Node: 1, At: 250 * sim.Millisecond, Duration: 100 * sim.Millisecond},
			{Node: 0, At: 400 * sim.Millisecond},
		},
		NodeSlows: []NodeSlow{
			{Node: 2, At: 300 * sim.Millisecond, Duration: 50 * sim.Millisecond, Factor: 2.5},
		},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() {
		t.Fatal("node faults alone must enable the injector config")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ spec, wantSub string }{
		{"nodecrash=1", "NODE@TIME"},
		{"nodecrash=x@1ms", "nodecrash"},
		{"nodecrash=-1@1ms", "negative node"},
		{"nodecrash=1@-5ms", "negative duration"},
		{"nodecrash=1@5ms:0ms", "must be positive"},
		{"nodeslow=1@5ms", "mandatory"},
		{"nodeslow=1@5ms:10ms", "factor is mandatory"},
		{"nodeslow=1@5ms:0ms:2", "must be positive"},
		{"nodeslow=1@5ms:10ms:1", "factor must be > 1"},
		{"nodeslow=-1@5ms:10ms:2", "negative node"},
	} {
		_, err := ParseSpec(bad.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted a malformed spec", bad.spec)
			continue
		}
		if !strings.Contains(err.Error(), bad.wantSub) {
			t.Errorf("ParseSpec(%q) error %q does not name the problem (want %q)", bad.spec, err, bad.wantSub)
		}
	}
}

func TestValidateNodeFaults(t *testing.T) {
	for _, bad := range []Config{
		{NodeCrashes: []NodeCrash{{Node: -1, At: sim.Millisecond}}},
		{NodeCrashes: []NodeCrash{{Node: 0, At: -sim.Millisecond}}},
		{NodeCrashes: []NodeCrash{{Node: 0, At: sim.Millisecond, Duration: -1}}},
		{NodeSlows: []NodeSlow{{Node: -1, At: 0, Duration: sim.Millisecond, Factor: 2}}},
		{NodeSlows: []NodeSlow{{Node: 0, At: 0, Duration: 0, Factor: 2}}},
		{NodeSlows: []NodeSlow{{Node: 0, At: 0, Duration: sim.Millisecond, Factor: 1}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid node fault", bad)
		}
	}
}

// Arm with the cluster's node hooks arms exactly the scheduled node
// faults: crashes fire at their instants, timed reboots follow and are
// counted only when the restore hook reports it took effect, slow
// windows bracket their duration, and vetoed faults schedule no
// follow-up.
func TestStartNodeFaultsSchedule(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{
		NodeCrashes: []NodeCrash{
			{Node: 1, At: 10 * sim.Millisecond, Duration: 5 * sim.Millisecond},
			{Node: 0, At: 20 * sim.Millisecond}, // permanent
			{Node: 2, At: 30 * sim.Millisecond}, // vetoed below
		},
		NodeSlows: []NodeSlow{
			{Node: 3, At: 12 * sim.Millisecond, Duration: 3 * sim.Millisecond, Factor: 2},
		},
	}
	inj := New(cfg, sim.NewRNG(1))
	var log []string
	add := func(ev string, at sim.Time) { log = append(log, ev+"@"+sim.Duration(at).String()) }
	inj.Arm(eng, map[string]Hook{
		"nodecrash": {
			On:  func(w Window) bool { add("crash", eng.Now()); return w.Target != 2 },
			Off: func(w Window) bool { add("reboot", eng.Now()); return true },
		},
		"nodeslow": {
			On: func(w Window) bool {
				if w.X != 2 {
					t.Fatalf("slow factor = %g, want 2", w.X)
				}
				add("slow", eng.Now())
				return true
			},
			Off: func(w Window) bool { add("unslow", eng.Now()); return true },
		},
	})
	eng.Run(sim.Time(100 * sim.Millisecond))
	want := []string{"crash@10ms", "slow@12ms", "reboot@15ms", "unslow@15ms", "crash@20ms", "crash@30ms"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("node-fault schedule = %v, want %v", log, want)
	}
	st := inj.Stats()
	if st.NodeCrashes != 2 || st.NodeRecoveries != 1 || st.NodeSlows != 1 {
		t.Fatalf("stats = %+v, want 2 node crashes, 1 recovery, 1 slow", st)
	}
}

// Faults due at the same instant fire in class order (core crashes
// before queue stalls), and within a class in config order, whatever
// order the config lists the classes in: arming order is the engine's
// tie-break, so it is part of the physics.
func TestHardFaultsSameInstantClassOrder(t *testing.T) {
	eng := sim.NewEngine()
	at := 10 * sim.Millisecond
	cfg := Config{
		QueueStalls: []QueueStall{{Queue: 3, At: at, Duration: sim.Millisecond}},
		CoreCrashes: []CoreCrash{{Core: 2, At: at}, {Core: 1, At: at}},
	}
	var log []string
	add := func(ev string) func(Window) bool {
		return func(w Window) bool { log = append(log, fmt.Sprintf("%s%d", ev, w.Target)); return true }
	}
	New(cfg, sim.NewRNG(1)).Arm(eng, map[string]Hook{
		"queuestall": {On: add("stall"), Off: func(Window) bool { return true }},
		"corecrash":  {On: add("crash"), Off: func(Window) bool { return true }},
	})
	eng.Run(sim.Time(20 * sim.Millisecond))
	if want := []string{"crash2", "crash1", "stall3"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("same-instant firing order = %v, want %v", log, want)
	}
}

// Only recoveries and heals have an off-counter, and an ending counts
// only when its hook reports it took: a refused reboot or core recovery
// counts nothing, and stall or slow endings never count.
func TestArmCountsEndingsOnlyWhenTaken(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{
		CoreCrashes: []CoreCrash{{Core: 1, At: sim.Millisecond, Duration: sim.Millisecond}},
		QueueStalls: []QueueStall{{Queue: 0, At: sim.Millisecond, Duration: sim.Millisecond}},
		NodeCrashes: []NodeCrash{{Node: 1, At: sim.Millisecond, Duration: sim.Millisecond}},
		NodeSlows:   []NodeSlow{{Node: 2, At: sim.Millisecond, Duration: sim.Millisecond, Factor: 2}},
		Partitions:  []Partition{{Node: 3, At: sim.Millisecond, Duration: sim.Millisecond}},
	}
	inj := New(cfg, sim.NewRNG(1))
	took := func(Window) bool { return true }
	refused := func(Window) bool { return false }
	ends := 0
	ended := func(Window) bool { ends++; return true }
	inj.Arm(eng, map[string]Hook{
		"corecrash":  {On: took, Off: refused},
		"queuestall": {On: took, Off: ended},
		"nodecrash":  {On: took, Off: refused},
		"nodeslow":   {On: took, Off: ended},
		"partition":  {On: took, Off: ended},
	})
	eng.Run(sim.Time(10 * sim.Millisecond))
	want := Stats{CoreCrashes: 1, QueueStalls: 1, NodeCrashes: 1, NodeSlows: 1, Partitions: 1, PartitionHeals: 1}
	if st := inj.Stats(); st != want || ends != 3 {
		t.Fatalf("stats = %+v with %d endings, want %+v with 3", st, ends, want)
	}
}

// A hook for a key that names no window class is a wiring bug, caught
// when the schedule is armed rather than silently never firing.
func TestArmRejectsUnknownHook(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Arm accepted a hook for a scalar key")
		}
	}()
	New(Config{WireLossProb: 0.1}, sim.NewRNG(1)).Arm(sim.NewEngine(), map[string]Hook{"loss": {}})
}
