package server

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"nmapsim/internal/faults"
	"nmapsim/internal/governor"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// TestOverloadDropsAccountedFor is the graceful-degradation contract: a
// ring small enough to overflow under a high-load burst must surface
// drops in the Result — and every dropped request must land in the
// ledger, not vanish. The run itself completes normally.
func TestOverloadDropsAccountedFor(t *testing.T) {
	cfg := quickCfg(workload.High, 7)
	cfg.NICRing = 8
	res := runWith(t, cfg, "powersave", "menu")
	if res.Drops == 0 {
		t.Fatal("8-slot ring at high load should overflow")
	}
	if !res.Reqs.Consistent() {
		t.Fatalf("ledger identity broken: %+v", res.Reqs)
	}
	if res.Reqs.Lost == 0 {
		t.Fatal("dropped requests must be recorded as Lost when retries are off")
	}
	if res.Reqs.Issued == 0 || res.Completed == 0 {
		t.Fatalf("run did not complete: %+v", res.Reqs)
	}
}

// TestWireLossAccountedFor covers the other drop site: packets lost on
// the client↔server wire (both directions) rather than in the ring.
func TestWireLossAccountedFor(t *testing.T) {
	cfg := quickCfg(workload.Low, 3)
	cfg.Faults = faults.Config{WireLossProb: 0.05}
	res := runWith(t, cfg, "performance", "menu")
	if res.Faults.WireDrops == 0 {
		t.Fatal("5% wire loss injected nothing")
	}
	if !res.Reqs.Consistent() {
		t.Fatalf("ledger identity broken: %+v", res.Reqs)
	}
	if res.Reqs.Lost == 0 {
		t.Fatal("wire-lost requests must be recorded as Lost when retries are off")
	}
}

// TestRetryRecoversLossAndShiftsTail runs the same lossy configuration
// with and without the retry loop. With retries on, previously-lost
// requests complete (more completions, retransmits visible) — but they
// complete an RTO late, so the tail must visibly shift right.
func TestRetryRecoversLossAndShiftsTail(t *testing.T) {
	base := quickCfg(workload.Low, 9)
	base.Faults = faults.Config{WireLossProb: 0.03}

	noRetry := runWith(t, base, "performance", "menu")

	withRetry := base
	withRetry.Retry = workload.RetryConfig{Timeout: 2 * sim.Millisecond}
	rec := runWith(t, withRetry, "performance", "menu")

	if rec.Reqs.Retransmits == 0 {
		t.Fatal("retry loop never retransmitted under 3% loss")
	}
	if !rec.Reqs.Consistent() || !noRetry.Reqs.Consistent() {
		t.Fatalf("ledger identity broken: retry %+v, no-retry %+v", rec.Reqs, noRetry.Reqs)
	}
	if rec.Reqs.Completed <= noRetry.Reqs.Completed {
		t.Fatalf("retries recovered nothing: %d completed vs %d without",
			rec.Reqs.Completed, noRetry.Reqs.Completed)
	}
	if rec.Reqs.Lost != 0 {
		t.Fatalf("with retries on, losses should be recovered or timed out, got Lost=%d",
			rec.Reqs.Lost)
	}
	// ~6% of requests lose a copy on one of the two traversals; the
	// recovered ones finish at +RTO, which must drag P99 up.
	if rec.Summary.P99 <= noRetry.Summary.P99 {
		t.Fatalf("retransmissions did not shift the tail: P99 %v with retries vs %v without",
			rec.Summary.P99, noRetry.Summary.P99)
	}
	if rec.Summary.P99 < withRetry.Retry.Timeout {
		t.Fatalf("P99 %v below the 2ms RTO — retransmitted requests cannot have finished faster",
			rec.Summary.P99)
	}
}

// TestRetryNeutralWithoutFaults proves the recovery loop is
// physics-neutral when nothing fails: arming and canceling timers must
// not perturb the simulation, so every physical quantity matches the
// retry-free run exactly.
func TestRetryNeutralWithoutFaults(t *testing.T) {
	base := quickCfg(workload.Low, 11)
	plain := runWith(t, base, "ondemand", "menu")

	cfg := base
	cfg.Retry = workload.RetryConfig{Timeout: 2 * sim.Millisecond}
	timed := runWith(t, cfg, "ondemand", "menu")

	if timed.Reqs.Retransmits != 0 || timed.Reqs.TimedOut != 0 {
		t.Fatalf("spurious recovery activity without faults: %+v", timed.Reqs)
	}
	// Strip the ledger (the only intentional difference: plain runs
	// don't arm timers) and compare everything physical.
	a, b := plain, timed
	if !reflect.DeepEqual(a.Summary, b.Summary) ||
		a.EnergyJ != b.EnergyJ || a.Completed != b.Completed ||
		a.Transitions != b.Transitions || !reflect.DeepEqual(a.PerCore, b.PerCore) {
		t.Fatalf("retry timers perturbed fault-free physics:\nplain: %v\ntimed: %v", a, b)
	}
}

// TestFaultedRunDeterministic is the reproducibility gate: the same
// seed and the same fault configuration must reproduce the identical
// Result — fault schedule, retransmissions, ledger, histogram — twice.
func TestFaultedRunDeterministic(t *testing.T) {
	cfg := quickCfg(workload.Medium, 21)
	cfg.Faults = faults.Config{
		WireLossProb:     0.02,
		IRQLossProb:      0.01,
		IRQJitter:        2 * sim.Microsecond,
		DMAJitter:        200 * sim.Nanosecond,
		ThrottleRate:     50,
		ThrottleDuration: 2 * sim.Millisecond,
		ThrottlePState:   10,
	}
	cfg.Retry = workload.RetryConfig{Timeout: 2 * sim.Millisecond}

	marshal := func(r Result) []byte {
		t.Helper()
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := marshal(runWith(t, cfg, "ondemand", "menu"))
	b := marshal(runWith(t, cfg, "ondemand", "menu"))
	if string(a) != string(b) {
		t.Fatalf("same seed + same fault config produced different results:\n%.300s\n%.300s", a, b)
	}
	var res Result
	if err := json.Unmarshal(a, &res); err != nil {
		t.Fatal(err)
	}
	if res.Faults.WireDrops == 0 || res.Faults.IRQsLost == 0 || res.Faults.Throttles == 0 {
		t.Fatalf("fault config injected nothing: %+v", res.Faults)
	}
}

// TestLostIRQsDelayButDontStrand checks the lost-interrupt semantics:
// a dropped MSI leaves the queue unmasked, so the next arrival (or a
// client retransmission) re-triggers delivery — requests still finish.
func TestLostIRQsDelayButDontStrand(t *testing.T) {
	cfg := quickCfg(workload.Low, 5)
	cfg.Faults = faults.Config{IRQLossProb: 0.2}
	cfg.Retry = workload.RetryConfig{Timeout: 2 * sim.Millisecond}
	res := runWith(t, cfg, "performance", "menu")
	if res.Faults.IRQsLost == 0 {
		t.Fatal("20% IRQ loss injected nothing")
	}
	if !res.Reqs.Consistent() {
		t.Fatalf("ledger identity broken: %+v", res.Reqs)
	}
	if res.Completed == 0 {
		t.Fatal("no requests completed under IRQ loss")
	}
}

// TestSockQCapDropsAccounted bounds the per-core socket queue and
// checks the third drop site feeds the same ledger.
func TestSockQCapDropsAccounted(t *testing.T) {
	cfg := quickCfg(workload.High, 13)
	cfg.SockQCap = 2
	res := runWith(t, cfg, "powersave", "menu")
	if res.SockDrops == 0 {
		t.Fatal("2-slot socket queue at high load should overflow")
	}
	if !res.Reqs.Consistent() {
		t.Fatalf("ledger identity broken: %+v", res.Reqs)
	}
}

// TestWatchdogSurfacesThroughServer arms the event watchdog far below
// what the run needs and checks the abort surfaces as Server.Err
// instead of a hang or a panic.
func TestWatchdogSurfacesThroughServer(t *testing.T) {
	cfg := quickCfg(workload.Low, 17)
	cfg.MaxEvents = 10_000
	idle, _ := governor.NewIdlePolicy("menu")
	s := New(cfg, idle)
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Performance{}, 0))
	res, _ := s.Run()
	if err := s.Err(); !errors.Is(err, sim.ErrWatchdog) {
		t.Fatalf("Err() = %v, want ErrWatchdog", err)
	}
	// The partial result is still assembled (collection never panics).
	if res.Reqs.Issued == 0 {
		t.Fatal("watchdog fired before any request was issued — cap too low for the test")
	}
}

// TestConfigValidateRejectsBadKnobs spot-checks the consolidated
// validation: each bad knob must surface as a descriptive error from
// Validate, not a panic mid-run.
func TestConfigValidateRejectsBadKnobs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // error substring; empty accepts any error
	}{
		{"negative ring", func(c *Config) { c.NICRing = -1 }, ""},
		{"negative ITR", func(c *Config) { c.ITR = -sim.Microsecond }, ""},
		{"negative RPS", func(c *Config) { c.RPS = -5 }, ""},
		{"negative flows", func(c *Config) { c.Flows = -2 }, ""},
		{"negative duration", func(c *Config) { c.Duration = -sim.Second }, ""},
		{"negative sockq", func(c *Config) { c.SockQCap = -1 }, ""},
		{"loss prob over 1", func(c *Config) { c.Faults.WireLossProb = 1.5 }, ""},
		{"negative jitter", func(c *Config) { c.Faults.IRQJitter = -sim.Microsecond }, ""},
		{"throttle pstate out of range", func(c *Config) {
			c.Faults.ThrottleRate = 1
			c.Faults.ThrottlePState = 99
		}, "throttle P-state 99 out of range"},
		{"retry backoff under 1", func(c *Config) {
			c.Retry = workload.RetryConfig{Timeout: sim.Millisecond, Backoff: 0.5}
		}, ""},
		{"retry cap under timeout", func(c *Config) {
			c.Retry = workload.RetryConfig{Timeout: 2 * sim.Millisecond, MaxTimeout: sim.Millisecond}
		}, ""},
		{"corecrash core out of range", func(c *Config) {
			c.Faults.CoreCrashes = []faults.CoreCrash{{Core: 99, At: sim.Millisecond}}
		}, "corecrash core 99 out of range"},
		{"queuestall queue out of range", func(c *Config) {
			c.Faults.QueueStalls = []faults.QueueStall{{Queue: 99, At: sim.Millisecond, Duration: sim.Millisecond}}
		}, "queuestall queue 99 out of range"},
		{"permanent crashes kill every core", func(c *Config) {
			for core := 0; core < c.withDefaults().Model.NumCores; core++ {
				c.Faults.CoreCrashes = append(c.Faults.CoreCrashes, faults.CoreCrash{Core: core, At: sim.Millisecond})
			}
		}, "would kill all"},
	}
	for _, tc := range cases {
		cfg := quickCfg(workload.Low, 1)
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the bad config", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate error %q, want substring %q", tc.name, err, tc.want)
		}
	}
	// A timed crash on every core leaves a survivor at all times, so only
	// permanent crashes count toward the all-cores check.
	timed := quickCfg(workload.Low, 1)
	for core := 0; core < timed.withDefaults().Model.NumCores; core++ {
		timed.Faults.CoreCrashes = append(timed.Faults.CoreCrashes,
			faults.CoreCrash{Core: core, At: sim.Millisecond, Duration: sim.Millisecond})
	}
	if err := timed.Validate(); err != nil {
		t.Errorf("Validate rejected timed crashes on every core: %v", err)
	}
	good := quickCfg(workload.Low, 1)
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected a good config: %v", err)
	}
}
