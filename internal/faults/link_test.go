package faults

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nmapsim/internal/sim"
)

// The link-fault grammar round-trips: full and one-way partitions in
// both spellings, repeated slow windows, and a lossy window, all in one
// spec.
func TestParseSpecLinkFaults(t *testing.T) {
	cfg, err := ParseSpec("partition=1@250ms:100ms,partition=fe|2@300ms,partition=0|fe@400ms:50ms," +
		"linkslow=1@100ms:20ms:8,linkslow=1@200ms:20ms:8,linkloss=2@500ms:40ms:0.05")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Partitions: []Partition{
			{Node: 1, Dir: LinkBoth, At: 250 * sim.Millisecond, Duration: 100 * sim.Millisecond},
			{Node: 2, Dir: LinkTx, At: 300 * sim.Millisecond},
			{Node: 0, Dir: LinkRx, At: 400 * sim.Millisecond, Duration: 50 * sim.Millisecond},
		},
		LinkSlows: []LinkSlow{
			{Node: 1, At: 100 * sim.Millisecond, Duration: 20 * sim.Millisecond, Factor: 8},
			{Node: 1, At: 200 * sim.Millisecond, Duration: 20 * sim.Millisecond, Factor: 8},
		},
		LinkLosses: []LinkLoss{
			{Node: 2, At: 500 * sim.Millisecond, Duration: 40 * sim.Millisecond, Prob: 0.05},
		},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() || !cfg.LinkFaults() {
		t.Fatal("link faults alone must enable the injector config and report LinkFaults")
	}
	for _, bad := range []struct{ spec, wantSub string }{
		{"partition=1", "TIME"},
		{"partition=x@1ms", "partition"},
		{"partition=-1@1ms", "negative node"},
		{"partition=1|2@1ms", "spelled fe"},
		{"partition=1@1ms:0ms", "must be positive"},
		{"linkslow=1@5ms", "mandatory"},
		{"linkslow=1@5ms:10ms", "factor is mandatory"},
		{"linkslow=1@5ms:0ms:2", "must be positive"},
		{"linkslow=1@5ms:10ms:1", "factor must be > 1"},
		{"linkloss=1@5ms:10ms", "probability is mandatory"},
		{"linkloss=1@5ms:0ms:0.1", "must be positive"},
		{"linkloss=1@5ms:10ms:1.5", "outside"},
		{"linkloss=-1@5ms:10ms:0.1", "negative node"},
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

func TestValidateLinkFaults(t *testing.T) {
	for _, bad := range []Config{
		{Partitions: []Partition{{Node: -1, At: sim.Millisecond}}},
		{Partitions: []Partition{{Node: 0, Dir: 99, At: sim.Millisecond}}},
		{Partitions: []Partition{{Node: 0, At: -sim.Millisecond}}},
		{Partitions: []Partition{{Node: 0, At: sim.Millisecond, Duration: -1}}},
		{LinkSlows: []LinkSlow{{Node: -1, At: 0, Duration: sim.Millisecond, Factor: 2}}},
		{LinkSlows: []LinkSlow{{Node: 0, At: 0, Duration: 0, Factor: 2}}},
		{LinkSlows: []LinkSlow{{Node: 0, At: 0, Duration: sim.Millisecond, Factor: 1}}},
		{LinkLosses: []LinkLoss{{Node: 0, At: 0, Duration: sim.Millisecond, Prob: 0}}},
		{LinkLosses: []LinkLoss{{Node: 0, At: 0, Duration: sim.Millisecond, Prob: 1}}},
		{LinkLosses: []LinkLoss{{Node: 0, At: 0, Duration: 0, Prob: 0.5}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid link fault", bad)
		}
	}
}

// Arm with the cluster's fabric hooks arms exactly the scheduled
// interconnect faults:
// cuts fire at their instants with their direction, timed heals follow
// only when the cut took, slow and lossy windows bracket their
// durations, and vetoed faults (already-cut leg, already-degraded
// link) schedule no follow-up and count nothing.
func TestStartLinkFaultsSchedule(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{
		Partitions: []Partition{
			{Node: 1, Dir: LinkBoth, At: 10 * sim.Millisecond, Duration: 5 * sim.Millisecond},
			{Node: 0, Dir: LinkRx, At: 20 * sim.Millisecond},               // permanent
			{Node: 2, At: 30 * sim.Millisecond, Duration: sim.Millisecond}, // vetoed below
		},
		LinkSlows: []LinkSlow{
			{Node: 3, At: 12 * sim.Millisecond, Duration: 3 * sim.Millisecond, Factor: 8},
			{Node: 4, At: 40 * sim.Millisecond, Duration: sim.Millisecond, Factor: 2}, // vetoed below
		},
		LinkLosses: []LinkLoss{
			{Node: 3, At: 50 * sim.Millisecond, Duration: 2 * sim.Millisecond, Prob: 0.25},
		},
	}
	inj := New(cfg, sim.NewRNG(1))
	var log []string
	add := func(ev string, at sim.Time) { log = append(log, ev+"@"+sim.Duration(at).String()) }
	inj.Arm(eng, map[string]Hook{
		"partition": {
			On: func(w Window) bool {
				if w.Target == 1 && w.Dir != LinkBoth {
					t.Fatalf("full partition delivered dir %d, want LinkBoth", w.Dir)
				}
				if w.Target == 0 && w.Dir != LinkRx {
					t.Fatalf("one-way partition delivered dir %d, want LinkRx", w.Dir)
				}
				add("cut", eng.Now())
				return w.Target != 2
			},
			Off: func(w Window) bool { add("heal", eng.Now()); return true },
		},
		"linkslow": {
			On: func(w Window) bool {
				if w.Target == 3 && w.X != 8 {
					t.Fatalf("slow factor = %g, want 8", w.X)
				}
				add("slow", eng.Now())
				return w.Target != 4
			},
			Off: func(w Window) bool { add("unslow", eng.Now()); return true },
		},
		"linkloss": {
			On: func(w Window) bool {
				if w.X != 0.25 {
					t.Fatalf("loss probability = %g, want 0.25", w.X)
				}
				add("loss-on", eng.Now())
				return true
			},
			Off: func(w Window) bool { add("loss-off", eng.Now()); return true },
		},
	})
	eng.Run(sim.Time(100 * sim.Millisecond))
	want := []string{
		"cut@10ms", "slow@12ms", "heal@15ms", "unslow@15ms",
		"cut@20ms", "cut@30ms", "slow@40ms", "loss-on@50ms", "loss-off@52ms",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("link-fault schedule = %v, want %v", log, want)
	}
	st := inj.Stats()
	if st.Partitions != 2 || st.PartitionHeals != 1 || st.LinkSlows != 1 || st.LinkLosses != 1 {
		t.Fatalf("stats = %+v, want 2 partitions, 1 heal, 1 slow, 1 lossy window", st)
	}
}

// Link faults due at the same instant fire in class order: partitions,
// then link slows, then link losses, each class in config order.
func TestLinkFaultsSameInstantClassOrder(t *testing.T) {
	eng := sim.NewEngine()
	at := 10 * sim.Millisecond
	cfg := Config{
		LinkLosses: []LinkLoss{{Node: 0, At: at, Duration: sim.Millisecond, Prob: 0.5}},
		LinkSlows:  []LinkSlow{{Node: 1, At: at, Duration: sim.Millisecond, Factor: 2}},
		Partitions: []Partition{{Node: 3, At: at}, {Node: 2, Dir: LinkTx, At: at}},
	}
	var log []string
	add := func(ev string, node int) bool { log = append(log, ev+strconv.Itoa(node)); return true }
	on := func(ev string) Hook {
		return Hook{On: func(w Window) bool { return add(ev, w.Target) }, Off: func(Window) bool { return true }}
	}
	New(cfg, sim.NewRNG(1)).Arm(eng, map[string]Hook{"linkloss": on("loss"), "linkslow": on("slow"), "partition": on("cut")})
	eng.Run(sim.Time(20 * sim.Millisecond))
	if want := []string{"cut3", "cut2", "slow1", "loss0"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("same-instant firing order = %v, want %v", log, want)
	}
}
