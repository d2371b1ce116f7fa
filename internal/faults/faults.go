// Package faults is the deterministic fault-injection subsystem of the
// reproduction. Every injectable fault — wire packet loss, lost or late
// interrupts, DMA jitter, transient per-core frequency throttling — is
// drawn from a dedicated seeded PRNG inside simulation-event order, so
// the same seed and the same fault configuration reproduce the same
// fault schedule byte-for-byte regardless of harness parallelism.
//
// The zero-cost contract: a nil *Injector (or one built from a zero
// Config) never touches its PRNG and never allocates, so the zero-fault
// datapath is byte-identical to a build without the package. Datapath
// code therefore calls the decision methods unconditionally; each is
// nil-receiver-safe and returns the "no fault" answer immediately when
// the corresponding knob is off.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"nmapsim/internal/sim"
)

// Config enables and parameterises each fault class. The zero value
// injects nothing.
type Config struct {
	// WireLossProb is the probability that one network traversal (a
	// client→server request or a server→client response) silently loses
	// the packet. Recovery is the client's retry loop.
	WireLossProb float64
	// IRQLossProb is the probability that a raised NIC interrupt never
	// reaches the core (a lost MSI write). The queue keeps its IRQ
	// unmasked, so a later packet arrival — typically a client
	// retransmission — re-raises it.
	IRQLossProb float64
	// IRQJitter is the mean of the exponential extra delay added to
	// every interrupt delivery (late interrupts). Zero adds none.
	IRQJitter sim.Duration
	// DMAJitter is the mean of the exponential extra latency added to
	// every packet's wire-to-ring DMA. Zero adds none.
	DMAJitter sim.Duration
	// ThrottleRate is the mean rate, in events per second of simulated
	// time, of transient thermal-style throttle events. Each event
	// clamps one uniformly chosen core to ThrottlePState (or slower)
	// for an exponentially distributed duration. Zero disables.
	ThrottleRate float64
	// ThrottleDuration is the mean duration of one throttle event;
	// defaults to 10ms when ThrottleRate is set and this is zero.
	ThrottleDuration sim.Duration
	// ThrottlePState is the P-state index throttled cores are clamped
	// to (they may run slower, never faster). Zero clamps to the
	// model's slowest state; the server assembly resolves that index.
	ThrottlePState int
	// CoreCrashes schedules hard core failures: at each entry's instant
	// the named core goes offline (C-state-legal teardown, RSS
	// re-steer, NAPI drain) and, if the entry carries a duration, comes
	// back online that much later. Scheduled hard faults draw nothing
	// from the PRNG, so a config with only hard faults armed past the
	// run horizon is physics-identical to a faultless run.
	CoreCrashes []CoreCrash
	// QueueStalls schedules stuck Rx rings: the queue stops raising
	// interrupts and returning polled packets for the stall window (DMA
	// keeps landing packets, so the ring fills and overflows honestly).
	QueueStalls []QueueStall
	// NodeCrashes schedules whole-node hard failures: at each entry's
	// instant the named cluster node loses every core at once and, if
	// the entry carries a duration, reboots that much later. Meaningful
	// only to a cluster assembly — a single server carries them in its
	// config but never arms them (the cluster owns the node lifecycle).
	// Like the other scheduled hard faults they draw nothing from the
	// PRNG.
	NodeCrashes []NodeCrash
	// NodeSlows schedules whole-node slowdown windows: every core of the
	// named node is clamped to the slowest P-state covering the factor
	// (a thermal event or failed fan at node scale) for the window.
	NodeSlows []NodeSlow
	// Partitions schedules interconnect cuts between the cluster front
	// end and a node — full (both legs) or asymmetric one-way cuts.
	// Copies in flight on a cut leg are dropped, silently: the front end
	// only learns through its own probes, hedges and timeouts. Cluster
	// runs only; like the other scheduled hard faults they draw nothing
	// from the PRNG.
	Partitions []Partition
	// LinkSlows schedules link-degradation windows: every traversal of
	// the named node's link is stretched by the factor (gray failure —
	// the node itself stays healthy).
	LinkSlows []LinkSlow
	// LinkLosses schedules lossy-link windows: each traversal of the
	// named node's link is dropped with the given probability, drawn
	// from the fabric's own side stream.
	LinkLosses []LinkLoss
}

// LinkDir selects which leg(s) of a front-end↔node link a partition
// severs.
type LinkDir uint8

// The three partition shapes.
const (
	// LinkBoth cuts both legs — a full partition of the node.
	LinkBoth LinkDir = iota
	// LinkTx cuts the front-end→node leg only: requests blackhole while
	// responses still flow.
	LinkTx
	// LinkRx cuts the node→front-end leg only: the node keeps serving
	// but the front end never hears — the classic gray failure.
	LinkRx
)

// Partition schedules one interconnect cut.
type Partition struct {
	// Node is the cluster node whose link is cut.
	Node int
	// Dir selects the severed leg(s).
	Dir LinkDir
	// At is the simulated instant the cut fires.
	At sim.Duration
	// Duration is how long the cut holds; zero means the partition is
	// permanent for the rest of the run.
	Duration sim.Duration
}

// LinkSlow schedules one link-degradation window.
type LinkSlow struct {
	// Node is the cluster node whose link degrades.
	Node int
	// At is the simulated instant the degradation begins.
	At sim.Duration
	// Duration is the degradation window (always bounded).
	Duration sim.Duration
	// Factor stretches every traversal's delay. Must be > 1.
	Factor float64
}

// LinkLoss schedules one lossy-link window.
type LinkLoss struct {
	// Node is the cluster node whose link turns lossy.
	Node int
	// At is the simulated instant the loss window begins.
	At sim.Duration
	// Duration is the loss window (always bounded).
	Duration sim.Duration
	// Prob is the per-traversal drop probability, in (0, 1).
	Prob float64
}

// NodeCrash schedules one whole-node hard failure.
type NodeCrash struct {
	// Node is the cluster node that dies.
	Node int
	// At is the simulated instant the crash fires.
	At sim.Duration
	// Duration is how long the node stays down; zero means the crash is
	// permanent for the rest of the run.
	Duration sim.Duration
}

// NodeSlow schedules one whole-node slowdown window.
type NodeSlow struct {
	// Node is the cluster node that slows.
	Node int
	// At is the simulated instant the slowdown begins.
	At sim.Duration
	// Duration is the slowdown window (always bounded).
	Duration sim.Duration
	// Factor is the frequency ratio to cover: 2 clamps the node to the
	// slowest P-state at or above half of P0's frequency. Must be > 1.
	Factor float64
}

// CoreCrash schedules one hard core failure.
type CoreCrash struct {
	// Core is the core (== RSS queue) that dies.
	Core int
	// At is the simulated instant the crash fires.
	At sim.Duration
	// Duration is how long the core stays offline; zero means the crash
	// is permanent for the rest of the run.
	Duration sim.Duration
}

// QueueStall schedules one stuck-Rx-ring window.
type QueueStall struct {
	// Queue is the Rx queue that sticks.
	Queue int
	// At is the simulated instant the stall begins.
	At sim.Duration
	// Duration is the stall window (always bounded: a permanent stall
	// is a core crash without the recovery story, spelled corecrash).
	Duration sim.Duration
}

// Window is one scheduled window fault in class-neutral form: the
// fields every class's TARGET@TIME[:DUR][:X] record shares, as the
// arming hooks receive it.
type Window struct {
	// Target is the core, queue or node the fault hits.
	Target int
	// Dir selects the severed leg(s); partitions only.
	Dir LinkDir
	// At is the simulated instant the fault begins.
	At sim.Duration
	// Duration is the window; zero means permanent (for the classes
	// whose :DUR is optional).
	Duration sim.Duration
	// X is the class's factor or probability; zero when it has none.
	X float64
}

// Hook begins (On) and ends (Off) the window faults of one class. Each
// reports whether it took effect.
type Hook struct {
	On, Off func(w Window) bool
}

// Layer is the assembly that arms a window-fault class.
type Layer uint8

// The two arming layers.
const (
	// ServerLayer classes (corecrash, queuestall) are armed by each
	// server on its own cores and queues.
	ServerLayer Layer = iota
	// ClusterLayer classes (node and link faults) are armed once, by the
	// cluster that owns the node lifecycle and the fabric.
	ClusterLayer
)

// Enabled reports whether any fault class is active.
func (c Config) Enabled() bool {
	return c.WireLossProb > 0 || c.IRQLossProb > 0 ||
		c.IRQJitter > 0 || c.DMAJitter > 0 || c.ThrottleRate > 0 || c.schedules(false)
}

// LinkFaults reports whether any interconnect fault is scheduled; the
// cluster uses it to decide whether the fabric machinery must be armed
// even when the fabric model itself is configured at zero cost.
func (c Config) LinkFaults() bool { return c.schedules(true) }

// schedules reports whether c holds a window fault, of an interconnect
// class if linkOnly.
func (c *Config) schedules(linkOnly bool) bool {
	for i := range keys {
		if k := &keys[i]; k.get != nil && (k.link || !linkOnly) && len(k.get(c)) > 0 {
			return true
		}
	}
	return false
}

// Validate rejects out-of-range parameters with a descriptive error.
func (c Config) Validate() error {
	if c.WireLossProb < 0 || c.WireLossProb >= 1 {
		return fmt.Errorf("faults: wire loss probability %g outside [0, 1)", c.WireLossProb)
	}
	if c.IRQLossProb < 0 || c.IRQLossProb >= 1 {
		return fmt.Errorf("faults: IRQ loss probability %g outside [0, 1)", c.IRQLossProb)
	}
	if c.IRQJitter < 0 {
		return fmt.Errorf("faults: negative IRQ jitter %v", c.IRQJitter)
	}
	if c.DMAJitter < 0 {
		return fmt.Errorf("faults: negative DMA jitter %v", c.DMAJitter)
	}
	if c.ThrottleRate < 0 {
		return fmt.Errorf("faults: negative throttle rate %g", c.ThrottleRate)
	}
	if c.ThrottleDuration < 0 {
		return fmt.Errorf("faults: negative throttle duration %v", c.ThrottleDuration)
	}
	if c.ThrottlePState < 0 {
		return fmt.Errorf("faults: negative throttle P-state %d", c.ThrottlePState)
	}
	return c.eachWindow(func(k *keySpec, w Window) error {
		if err := k.check(w); err != nil {
			return fmt.Errorf("faults: %s: %v", k.key, err)
		}
		return nil
	})
}

// CheckRange rejects the first window fault armed by layer l whose
// target is not below n, the layer's count of cores (== queues) or of
// nodes. Validate cannot check this: only the assembly knows n.
func (c Config) CheckRange(l Layer, n int) error {
	return c.eachWindow(func(k *keySpec, w Window) error {
		if k.layer == l && w.Target >= n {
			return fmt.Errorf("%s %s %d out of range for %d %ss", k.key, k.target, w.Target, n, k.target)
		}
		return nil
	})
}

// Only returns the window faults of c that layer l arms, with every
// other class and every scalar knob left zero.
func (c Config) Only(l Layer) Config {
	var out Config
	c.eachWindow(func(k *keySpec, w Window) error {
		if k.layer == l {
			k.put(&out, w)
		}
		return nil
	})
	return out
}

// eachWindow calls fn on every scheduled window fault of c, classes in
// table order and each class in config order, stopping at fn's first
// error.
func (c *Config) eachWindow(fn func(k *keySpec, w Window) error) error {
	for i := range keys {
		k := &keys[i]
		if k.get == nil {
			continue
		}
		for _, w := range k.get(c) {
			if err := fn(k, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats counts the faults actually injected over a run. It is part of
// server.Result, so fault schedules participate in the byte-for-byte
// determinism regression gates.
type Stats struct {
	// WireDrops counts packets lost on the wire (both directions).
	WireDrops uint64
	// IRQsLost counts interrupts that never reached their core.
	IRQsLost uint64
	// Throttles counts throttle events begun.
	Throttles uint64
	// CoreCrashes counts cores actually taken offline (a crash scheduled
	// on an already-dead core, or on the last survivor, is skipped).
	CoreCrashes uint64
	// CoreRecoveries counts cores brought back online after a timed crash.
	CoreRecoveries uint64
	// QueueStalls counts stall windows that actually began.
	QueueStalls uint64
	// NodeCrashes counts whole nodes actually taken down (a crash
	// scheduled on an already-dead node is skipped).
	NodeCrashes uint64
	// NodeRecoveries counts nodes rebooted after a timed node crash.
	NodeRecoveries uint64
	// NodeSlows counts node slowdown windows that actually began.
	NodeSlows uint64
	// Partitions counts interconnect cuts that actually took effect (a
	// cut scheduled on an already-severed leg is skipped).
	Partitions uint64
	// PartitionHeals counts cuts healed after a timed partition.
	PartitionHeals uint64
	// LinkSlows counts link-degradation windows that actually began.
	LinkSlows uint64
	// LinkLosses counts lossy-link windows that actually began (the
	// per-traversal drops themselves are counted by the fabric ledger).
	LinkLosses uint64
}

// Injector draws fault decisions for one run. All methods are
// nil-receiver-safe and draw from the PRNG only when the corresponding
// fault class is enabled, which is what keeps the zero-fault path
// byte-identical to a faultless build.
type Injector struct {
	cfg   Config
	rng   *sim.RNG
	stats Stats
}

// New builds an injector, or returns nil when cfg injects nothing —
// callers hold the nil and every decision method short-circuits.
func New(cfg Config, rng *sim.RNG) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, rng: rng}
}

// Config returns the injector's configuration (zero for nil).
func (i *Injector) Config() Config {
	if i == nil {
		return Config{}
	}
	return i.cfg
}

// Stats returns the cumulative injection counts (zero for nil).
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return i.stats
}

// DropWire decides whether one network traversal loses its packet.
func (i *Injector) DropWire() bool {
	if i == nil || i.cfg.WireLossProb <= 0 {
		return false
	}
	if i.rng.Float64() < i.cfg.WireLossProb {
		i.stats.WireDrops++
		return true
	}
	return false
}

// DropIRQ decides whether a raised interrupt is lost in delivery.
func (i *Injector) DropIRQ() bool {
	if i == nil || i.cfg.IRQLossProb <= 0 {
		return false
	}
	if i.rng.Float64() < i.cfg.IRQLossProb {
		i.stats.IRQsLost++
		return true
	}
	return false
}

// IRQJitter samples the extra delivery delay for one interrupt.
func (i *Injector) IRQJitter() sim.Duration {
	if i == nil || i.cfg.IRQJitter <= 0 {
		return 0
	}
	return i.rng.ExpDur(i.cfg.IRQJitter)
}

// DMAJitter samples the extra DMA latency for one packet.
func (i *Injector) DMAJitter() sim.Duration {
	if i == nil || i.cfg.DMAJitter <= 0 {
		return 0
	}
	return i.rng.ExpDur(i.cfg.DMAJitter)
}

// StartThrottler arms the transient-throttle process on the engine:
// exponentially spaced events each clamp one uniformly chosen core
// (clamp), releasing it (unclamp) after an exponential hold time.
// Overlapping events on the same core nest — the core is released only
// when the last overlapping event expires. pstate is the resolved clamp
// target the assembly derived from Config.ThrottlePState.
func (i *Injector) StartThrottler(eng *sim.Engine, cores int, pstate int, clamp func(core, pstate int), unclamp func(core int)) {
	if i == nil || i.cfg.ThrottleRate <= 0 || cores <= 0 {
		return
	}
	meanGap := sim.Duration(1e9 / i.cfg.ThrottleRate)
	meanDur := i.cfg.ThrottleDuration
	if meanDur <= 0 {
		meanDur = 10 * sim.Millisecond
	}
	active := make([]int, cores)
	var fire func()
	fire = func() {
		core := i.rng.Intn(cores)
		hold := i.rng.ExpDur(meanDur)
		i.stats.Throttles++
		active[core]++
		clamp(core, pstate)
		eng.Schedule(hold, func() {
			active[core]--
			if active[core] == 0 {
				unclamp(core)
			}
		})
		eng.Schedule(i.rng.ExpDur(meanGap), fire)
	}
	eng.Schedule(i.rng.ExpDur(meanGap), fire)
}

// Arm schedules every window fault whose class has a hook, classes in
// the grammar's order and each class in config order, so faults due at
// the same instant fire in that order. The schedule is fixed by the
// configuration and draws nothing from the PRNG (lossy-link drops are
// drawn per traversal by the fabric, from its own side stream), so a
// window fault past the run horizon leaves the run byte-identical to a
// faultless one.
//
// hooks is keyed by class key (corecrash, ...). On fires at the fault's
// instant; only when it reports that the fault took is the fault
// counted and, for a timed fault, Off scheduled Duration later. Off's
// report is counted for the classes that count endings (core and node
// recoveries, partition heals) and ignored for the rest. Each layer
// passes the hooks of the classes it owns, so nothing is armed twice.
func (i *Injector) Arm(eng *sim.Engine, hooks map[string]Hook) {
	if i == nil {
		return
	}
	for key := range hooks {
		if k := lookup(key); k == nil || k.get == nil {
			panic("faults: no window fault class " + key)
		}
	}
	i.cfg.eachWindow(func(k *keySpec, w Window) error {
		h, ok := hooks[k.key]
		if !ok {
			return nil
		}
		eng.At(sim.Time(w.At), func() {
			if !h.On(w) {
				return
			}
			*k.on(&i.stats)++
			if w.Duration > 0 {
				eng.Schedule(w.Duration, func() {
					if h.Off(w) && k.off != nil {
						*k.off(&i.stats)++
					}
				})
			}
		})
		return nil
	})
}

// extra is the field a window class carries beyond TARGET@TIME[:DUR].
type extra uint8

const (
	noExtra extra = iota
	ends          // A|B endpoints in place of TARGET, one spelled fe
	factor        // a trailing :FACTOR, a slowdown ratio > 1
	prob          // a trailing :PROB, a drop probability in (0, 1)
)

// extraName names a trailing extra field in parse errors.
var extraName = [...]string{factor: "factor", prob: "probability"}

// keySpec is one key of the fault grammar. A scalar key sets one knob
// through set and may appear once. A window key (set == nil) describes
// a repeatable class of TARGET@TIME[:DUR][:X] records, with get/put
// adapters between its exported struct and the class-neutral Window.
type keySpec struct {
	key string
	set func(c *Config, val string) error

	usage   string // the record grammar, quoted in parse errors
	target  string // what TARGET indexes: core, queue or node
	needDur bool   // :DUR is mandatory; else optional, absent = permanent
	extra   extra
	layer   Layer
	link    bool // an interconnect fault: the cluster arms its fabric
	get     func(c *Config) []Window
	put     func(c *Config, w Window)
	on, off func(s *Stats) *uint64 // off nil: ending a window counts nothing
}

// keys is the fault grammar, in ParseSpec's documented order. The
// window classes' order is also their arming order.
var keys = [...]keySpec{
	{key: "loss", set: func(c *Config, v string) (err error) { c.WireLossProb, err = parseProb(v); return err }},
	{key: "irqloss", set: func(c *Config, v string) (err error) { c.IRQLossProb, err = parseProb(v); return err }},
	{key: "irqjitter", set: func(c *Config, v string) (err error) { c.IRQJitter, err = parseNonNegDur(v); return err }},
	{key: "dmajitter", set: func(c *Config, v string) (err error) { c.DMAJitter, err = parseNonNegDur(v); return err }},
	{key: "throttle", set: (*Config).parseThrottle},
	{key: "corecrash", usage: "CORE@TIME[:DUR]", target: "core", layer: ServerLayer,
		get: func(c *Config) []Window {
			return windows(c.CoreCrashes, func(f CoreCrash) Window { return Window{Target: f.Core, At: f.At, Duration: f.Duration} })
		},
		put: func(c *Config, w Window) {
			c.CoreCrashes = append(c.CoreCrashes, CoreCrash{Core: w.Target, At: w.At, Duration: w.Duration})
		},
		on: func(s *Stats) *uint64 { return &s.CoreCrashes }, off: func(s *Stats) *uint64 { return &s.CoreRecoveries }},
	{key: "queuestall", usage: "QUEUE@TIME:DUR", target: "queue", needDur: true, layer: ServerLayer,
		get: func(c *Config) []Window {
			return windows(c.QueueStalls, func(f QueueStall) Window { return Window{Target: f.Queue, At: f.At, Duration: f.Duration} })
		},
		put: func(c *Config, w Window) {
			c.QueueStalls = append(c.QueueStalls, QueueStall{Queue: w.Target, At: w.At, Duration: w.Duration})
		},
		on: func(s *Stats) *uint64 { return &s.QueueStalls }},
	{key: "nodecrash", usage: "NODE@TIME[:DUR]", target: "node", layer: ClusterLayer,
		get: func(c *Config) []Window {
			return windows(c.NodeCrashes, func(f NodeCrash) Window { return Window{Target: f.Node, At: f.At, Duration: f.Duration} })
		},
		put: func(c *Config, w Window) {
			c.NodeCrashes = append(c.NodeCrashes, NodeCrash{Node: w.Target, At: w.At, Duration: w.Duration})
		},
		on: func(s *Stats) *uint64 { return &s.NodeCrashes }, off: func(s *Stats) *uint64 { return &s.NodeRecoveries }},
	{key: "nodeslow", usage: "NODE@TIME:DUR:FACTOR", target: "node", needDur: true, extra: factor, layer: ClusterLayer,
		get: func(c *Config) []Window {
			return windows(c.NodeSlows, func(f NodeSlow) Window { return Window{Target: f.Node, At: f.At, Duration: f.Duration, X: f.Factor} })
		},
		put: func(c *Config, w Window) {
			c.NodeSlows = append(c.NodeSlows, NodeSlow{Node: w.Target, At: w.At, Duration: w.Duration, Factor: w.X})
		},
		on: func(s *Stats) *uint64 { return &s.NodeSlows }},
	{key: "partition", usage: "A|B@TIME[:DUR] or NODE@TIME[:DUR]", target: "node", extra: ends, layer: ClusterLayer, link: true,
		get: func(c *Config) []Window {
			return windows(c.Partitions, func(f Partition) Window { return Window{Target: f.Node, Dir: f.Dir, At: f.At, Duration: f.Duration} })
		},
		put: func(c *Config, w Window) {
			c.Partitions = append(c.Partitions, Partition{Node: w.Target, Dir: w.Dir, At: w.At, Duration: w.Duration})
		},
		on: func(s *Stats) *uint64 { return &s.Partitions }, off: func(s *Stats) *uint64 { return &s.PartitionHeals }},
	{key: "linkslow", usage: "NODE@TIME:DUR:FACTOR", target: "node", needDur: true, extra: factor, layer: ClusterLayer, link: true,
		get: func(c *Config) []Window {
			return windows(c.LinkSlows, func(f LinkSlow) Window { return Window{Target: f.Node, At: f.At, Duration: f.Duration, X: f.Factor} })
		},
		put: func(c *Config, w Window) {
			c.LinkSlows = append(c.LinkSlows, LinkSlow{Node: w.Target, At: w.At, Duration: w.Duration, Factor: w.X})
		},
		on: func(s *Stats) *uint64 { return &s.LinkSlows }},
	{key: "linkloss", usage: "NODE@TIME:DUR:PROB", target: "node", needDur: true, extra: prob, layer: ClusterLayer, link: true,
		get: func(c *Config) []Window {
			return windows(c.LinkLosses, func(f LinkLoss) Window { return Window{Target: f.Node, At: f.At, Duration: f.Duration, X: f.Prob} })
		},
		put: func(c *Config, w Window) {
			c.LinkLosses = append(c.LinkLosses, LinkLoss{Node: w.Target, At: w.At, Duration: w.Duration, Prob: w.X})
		},
		on: func(s *Stats) *uint64 { return &s.LinkLosses }},
}

// windows maps one class's exported records to Windows, in order.
func windows[T any](fs []T, w func(T) Window) []Window {
	var ws []Window
	for _, f := range fs {
		ws = append(ws, w(f))
	}
	return ws
}

// lookup returns the grammar entry for key, or nil.
func lookup(key string) *keySpec {
	for i := range keys {
		if keys[i].key == key {
			return &keys[i]
		}
	}
	return nil
}

// check validates one window record of class k.
func (k *keySpec) check(w Window) error {
	switch {
	case w.Target < 0:
		return fmt.Errorf("negative %s %d", k.target, w.Target)
	case w.Dir > LinkRx:
		return fmt.Errorf("unknown direction %d", w.Dir)
	case w.At < 0:
		return fmt.Errorf("negative time %v", w.At)
	case k.needDur && w.Duration <= 0:
		return fmt.Errorf("needs a positive duration, got %v", w.Duration)
	case w.Duration < 0:
		return fmt.Errorf("negative duration %v", w.Duration)
	case k.extra == factor && w.X <= 1:
		return fmt.Errorf("factor must be > 1, got %g", w.X)
	case k.extra == prob && (w.X <= 0 || w.X >= 1):
		return fmt.Errorf("probability %g outside (0, 1)", w.X)
	}
	return nil
}

// parseWindow parses one TARGET@TIME[:DUR][:X] record of class k and
// appends it to c.
func (k *keySpec) parseWindow(c *Config, val string) (err error) {
	var w Window
	tgt, when, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("want %s", k.usage)
	}
	if a, b, oneWay := strings.Cut(tgt, "|"); oneWay && k.extra == ends {
		switch {
		case a == "fe":
			w.Dir, tgt = LinkTx, b
		case b == "fe":
			w.Dir, tgt = LinkRx, a
		default:
			return fmt.Errorf("one endpoint of %q must be the front end, spelled fe", tgt)
		}
	}
	if w.Target, err = strconv.Atoi(tgt); err != nil {
		return err
	}
	atStr, durStr, timed := strings.Cut(when, ":")
	if !timed && k.needDur {
		return fmt.Errorf("want %s (the window is mandatory)", k.usage)
	}
	if w.At, err = parseNonNegDur(atStr); err != nil {
		return err
	}
	if timed {
		var xStr string
		name := extraName[k.extra]
		if name != "" {
			if durStr, xStr, ok = strings.Cut(durStr, ":"); !ok {
				return fmt.Errorf("want %s (the %s is mandatory)", k.usage, name)
			}
		}
		if w.Duration, err = parseDur(durStr); err != nil {
			return err
		}
		if w.Duration <= 0 {
			return fmt.Errorf("duration must be positive, got %v", w.Duration)
		}
		if name != "" {
			if w.X, err = strconv.ParseFloat(xStr, 64); err != nil {
				return err
			}
		}
	}
	if err = k.check(w); err == nil {
		k.put(c, w)
	}
	return err
}

// ParseSpec parses the CLI fault specification: a comma-separated list
// of key=value settings, one grammar entry per key in this order:
//
//	loss=P          wire loss probability (both directions)
//	irqloss=P       interrupt loss probability
//	irqjitter=DUR   mean extra interrupt delivery delay (e.g. 5us)
//	dmajitter=DUR   mean extra DMA latency
//	throttle=R/DUR[@PSTATE]
//	                throttle events per second / mean hold time, with an
//	                optional clamp P-state (throttle=5/20ms@12)
//	corecrash=CORE@TIME[:DUR]
//	                core CORE fails at TIME, recovering after DUR; without
//	                :DUR the crash is permanent
//	queuestall=QUEUE@TIME:DUR
//	                Rx queue QUEUE sticks at TIME for DUR
//	nodecrash=NODE@TIME[:DUR]
//	                node NODE fails at TIME, rebooting after DUR (cluster
//	                runs only: a single server ignores it)
//	nodeslow=NODE@TIME:DUR:FACTOR
//	                node NODE runs at 1/FACTOR of full frequency for DUR
//	partition=A|B@TIME[:DUR] or NODE@TIME[:DUR]
//	                interconnect cut between the front end, spelled fe,
//	                and a node, healing after DUR: fe|2 cuts only the
//	                front→node-2 leg, 2|fe only node 2's responses, and a
//	                bare node number both legs
//	linkslow=NODE@TIME:DUR:FACTOR
//	                every traversal of NODE's link stretches by FACTOR
//	linkloss=NODE@TIME:DUR:PROB
//	                each traversal of NODE's link drops with probability
//	                PROB
//
// Scalar keys may appear at most once; the window keys (corecrash
// onward) repeat, one fault per occurrence. An empty spec returns the
// zero Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return c, fmt.Errorf("faults: %q is not key=value", part)
		}
		k := lookup(key)
		if k == nil {
			names := make([]string, len(keys))
			for i := range keys {
				names[i] = keys[i].key
			}
			return c, fmt.Errorf("faults: unknown key %q (want %s)", key, strings.Join(names, ", "))
		}
		parse := k.set
		if parse == nil {
			parse = k.parseWindow
		} else if seen[key] {
			return c, fmt.Errorf("faults: duplicate key %q in %q", key, part)
		}
		seen[key] = true
		if err := parse(&c, val); err != nil {
			return c, fmt.Errorf("faults: bad %s value %q: %v", key, val, err)
		}
	}
	return c, c.Validate()
}

// parseProb parses a probability and range-checks it in place, so the
// error names the offending token instead of surfacing from the final
// whole-config validation.
func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p >= 1 {
		return 0, fmt.Errorf("probability %g outside [0, 1)", p)
	}
	return p, nil
}

// parseNonNegDur parses a duration token that must not be negative.
func parseNonNegDur(val string) (sim.Duration, error) {
	d, err := parseDur(val)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return d, nil
}

// parseThrottle parses "RATE/DUR" with an optional "@PSTATE" suffix.
func (c *Config) parseThrottle(val string) error {
	if at := strings.LastIndexByte(val, '@'); at >= 0 {
		p, err := strconv.Atoi(val[at+1:])
		if err != nil {
			return err
		}
		if p < 0 {
			return fmt.Errorf("negative P-state %d", p)
		}
		c.ThrottlePState = p
		val = val[:at]
	}
	rate, dur, ok := strings.Cut(val, "/")
	if !ok {
		return fmt.Errorf("want RATE/DUR")
	}
	r, err := strconv.ParseFloat(rate, 64)
	if err != nil {
		return err
	}
	if r < 0 {
		return fmt.Errorf("negative rate %g", r)
	}
	d, err := parseNonNegDur(dur)
	if err != nil {
		return err
	}
	c.ThrottleRate = r
	c.ThrottleDuration = d
	return nil
}

// parseDur parses a Go duration string into simulated nanoseconds.
func parseDur(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return sim.Duration(d.Nanoseconds()), nil
}
