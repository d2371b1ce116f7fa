// Package cluster assembles a fleet of NMAP nodes behind a front-end
// router on one simulation engine — the failure-domain level above a
// single server. Each node is a full server assembly (NIC, kernels,
// processor, its own governor); the cluster owns the node lifecycle:
// the front-end router steers the single offered-load stream across
// nodes, a deterministic health prober marks crashed nodes down and
// half-open on recovery, scheduled node-level hard faults (nodecrash /
// nodeslow) drive whole-node failure domains, and an optional fleet
// power-cap coordinator clamps every node's cores against a shared
// power budget.
//
// Determinism contract: a 1-node cluster with no node faults and no
// route retries is byte-identical in physics to a plain server.Run of
// the same configuration — the router degenerates to bookkeeping, the
// health prober's tick events touch no physics state, and per-node
// seeds leave node 0's streams unchanged. Conservation contract: the
// cluster ledger identity (audit.CheckCluster) holds even while nodes
// are down — every request the front end issues is completed, failed,
// or refused explicitly, never silently lost across the hand-off.
package cluster

import (
	"context"
	"errors"
	"fmt"

	"nmapsim/internal/audit"
	"nmapsim/internal/faults"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/stats"
	"nmapsim/internal/workload"
)

// Config describes one cluster run.
type Config struct {
	// Nodes is the fleet size (>= 1).
	Nodes int
	// Route selects the front-end policy: "rr" (round-robin, the
	// default), "least" (least-loaded), "weighted" (smooth weighted
	// round-robin over Weights), or "flow" (flow-affine with failover).
	Route string
	// Weights are the per-node weights for the weighted policy (empty =
	// all ones; otherwise one positive weight per node).
	Weights []float64
	// RouteRetries is the router's retry budget per request: how many
	// times a terminally failed request is resubmitted to a surviving
	// node before the front end declares it failed. Zero (the default)
	// disables resteering — the single-node seed behaviour.
	RouteRetries int
	// Health parameterises the prober (zero values take defaults).
	Health HealthConfig
	// Node is the per-node server configuration. Every node runs it
	// with a distinct derived seed (node 0 keeps Node.Seed unchanged).
	// Its Faults.NodeCrashes/NodeSlows schedule the cluster's node-level
	// faults; the per-core fault classes are armed on every node.
	Node server.Config
	// Fabric models the front-end↔node interconnect (propagation delay,
	// bounded queueing, seeded jitter). The zero value keeps the
	// zero-cost direct-call front end, byte-identical to a build without
	// the model; scheduling a link fault in Node.Faults arms the fabric
	// machinery even at zero configured cost.
	Fabric FabricConfig
	// Hedge arms tail-latency hedged requests in the router. The zero
	// value keeps the single-copy router.
	Hedge HedgeConfig
	// FleetPowerCapW, when positive, arms the fleet power-cap
	// coordinator: a deterministic controller that measures fleet power
	// every CapPeriod and clamps all nodes' cores one P-state further
	// for each period over budget (releasing below 90% of it). Zero
	// leaves every node to its own governor.
	FleetPowerCapW float64
	// CapPeriod is the coordinator's control period (default 10ms).
	CapPeriod sim.Duration
}

// HealthConfig parameterises the deterministic health prober.
type HealthConfig struct {
	// ProbeEvery is the probe interval (default 5ms).
	ProbeEvery sim.Duration
	// MarkDownAfter is how many consecutive failed probes mark a node
	// down (default 2).
	MarkDownAfter int
	// HalfOpenSuccess is how many completions a half-open (recovering)
	// node must serve before it is fully up again (default 1).
	HalfOpenSuccess int
	// ProbeTimeout, when positive, makes a probe fail when the fabric's
	// deterministic one-way delay estimate for the node's link exceeds
	// it (and always when the link is cut) — gray link degradation then
	// looks exactly like node unhealth to the prober. Zero (the
	// default) keeps probes node-state-only.
	ProbeTimeout sim.Duration
	// FlapHold, when positive, arms flap damping: after each mark-down
	// the node is held out of rotation for the current hold-off even
	// once probes pass again, and the hold-off doubles on every
	// successive mark-down (capped at FlapMaxHold, never decaying
	// within a run). Zero disables damping — the naive prober.
	FlapHold sim.Duration
	// FlapMaxHold caps the exponential hold-off (default 16×FlapHold).
	FlapMaxHold sim.Duration
}

func (h HealthConfig) withDefaults() HealthConfig {
	if h.ProbeEvery == 0 {
		h.ProbeEvery = 5 * sim.Millisecond
	}
	if h.MarkDownAfter == 0 {
		h.MarkDownAfter = 2
	}
	if h.HalfOpenSuccess == 0 {
		h.HalfOpenSuccess = 1
	}
	if h.FlapHold > 0 && h.FlapMaxHold == 0 {
		h.FlapMaxHold = 16 * h.FlapHold
	}
	return h
}

// NodeSetup builds one node's server on the shared engine — the seam
// the experiment harness uses to attach policies (governor stacks,
// NMAP) per node. cfg already carries the node-derived seed. A nil
// NodeSetup builds plain always-CC0 servers.
type NodeSetup func(node int, cfg server.Config, eng *sim.Engine) (*server.Server, error)

// Node is one member of the fleet: a full server assembly plus the
// router's view of it.
type Node struct {
	ID  int
	Srv *server.Server
	// live counts requests the router dispatched here that have not yet
	// completed or failed — the least-loaded policy's signal.
	live int
}

// Inject hands one request to this node's admission path — the
// router's dispatch target, exposed for custom front ends.
func (n *Node) Inject(r *workload.Request) {
	n.live++
	n.Srv.Ingress(r)
}

// Report collects this node's result as of now.
func (n *Node) Report() server.Result { return n.Srv.Collect() }

// Accounting is the front-end router's request ledger. Its identity —
// Issued == Completed + Failed + Unroutable + InFlight — is enforced by
// audit.CheckCluster together with the cross-node conservation rules.
type Accounting struct {
	// Issued counts requests the generator handed the router.
	Issued uint64
	// Completed counts requests whose response reached the front end.
	Completed uint64
	// Failed counts requests terminally failed after the retry budget
	// ran out (or with no surviving node to resteer to).
	Failed uint64
	// Unroutable counts fresh requests refused because no node was
	// routable at arrival (total fleet outage).
	Unroutable uint64
	// Resteers counts node-failure resubmissions the router dispatched.
	Resteers uint64
	// Hedges counts duplicate (hedge) copies the router dispatched.
	Hedges uint64
	// HedgeDupDone / HedgeDupFail count losing hedge copies whose
	// completion (or node-side failure) arrived after the request had
	// already settled — or, for failures, while another copy was still
	// believed in flight. Absorbed, never double-settled, and part of
	// the cluster conservation identities.
	HedgeDupDone, HedgeDupFail uint64
	// InFlight counts requests still live when the snapshot was taken.
	InFlight uint64
}

// Consistent reports whether the front-end ledger identity holds.
func (a Accounting) Consistent() bool {
	return a.Issued == a.Completed+a.Failed+a.Unroutable+a.InFlight
}

// Result summarises one cluster run.
type Result struct {
	// Summary digests the front-end response-time distribution over the
	// measured window (all nodes merged, resteered requests measured
	// from their original Sent instant).
	Summary stats.Summary
	// EnergyJ is the fleet package energy over the measured window;
	// AvgPowerW divides it by the window.
	EnergyJ   float64
	AvgPowerW float64
	// SLO echoes the profile's objective; FracOverSLO is the fraction
	// of measured responses exceeding it; Violated is cluster P99 > SLO.
	SLO         sim.Duration
	FracOverSLO float64
	Violated    bool
	// Front is the router's ledger.
	Front Accounting
	// Nodes holds every node's own Result, in node order.
	Nodes []server.Result
	// Faults counts the node-level faults actually injected.
	Faults faults.Stats
	// Fabric is the interconnect ledger (all zero when the fabric is
	// off or never perturbed).
	Fabric FabricStats
	// MarkDowns / MarkUps count health-prober node transitions.
	MarkDowns, MarkUps uint64
	// CapInterventions counts fleet power-cap tightening steps (zero
	// when the coordinator is off).
	CapInterventions uint64
	// Audit merges every node's report with the cluster conservation
	// rule, nil unless Node.Audit is set.
	Audit *audit.Report `json:",omitempty"`
}

// Cluster is one assembled fleet.
type Cluster struct {
	Cfg   Config
	Eng   *sim.Engine
	Nodes []*Node

	router *router
	health *health
	cap    *powerCap
	inj    *faults.Injector
	fabric *fabric
	hist   *stats.Hist

	measuring bool
	measFrom  sim.Time
	baselineE float64

	// OnDone observes every front-end completion (same copy-don't-retain
	// contract as server.OnDone).
	OnDone func(r *workload.Request)
}

// New assembles a cluster. The setup callback builds each node (nil =
// plain always-CC0 servers).
func New(cfg Config, setup NodeSetup) (*Cluster, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	cfg.Health = cfg.Health.withDefaults()
	if cfg.CapPeriod == 0 {
		cfg.CapPeriod = 10 * sim.Millisecond
	}
	if setup == nil {
		setup = func(_ int, ncfg server.Config, eng *sim.Engine) (*server.Server, error) {
			return server.NewOnEngine(ncfg, nil, eng), nil
		}
	}
	c := &Cluster{Cfg: cfg, Eng: sim.NewEngine()}
	for i := 0; i < cfg.Nodes; i++ {
		ncfg := cfg.Node
		// Node 0 keeps the configured seed so a 1-node cluster forks the
		// exact PRNG streams of a plain server; later nodes mix in the
		// golden-ratio constant per index for independent streams.
		ncfg.Seed = cfg.Node.Seed + uint64(i)*0x9e3779b97f4a7c15
		srv, err := setup(i, ncfg, c.Eng)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.Nodes = append(c.Nodes, &Node{ID: i, Srv: srv})
	}
	// One request pool for the fleet: a record issued by node 0's
	// generator and resteered to node 3 is recycled wherever it
	// terminates.
	for _, n := range c.Nodes[1:] {
		n.Srv.SharePool(c.Nodes[0].Srv.Pool())
	}
	// The fabric machinery is armed only when the model adds cost or a
	// link fault is scheduled; otherwise the pointer stays nil and the
	// front end keeps the zero-cost direct-call path.
	if cfg.Fabric.Enabled() || cfg.Node.Faults.LinkFaults() {
		c.fabric = newFabric(c, cfg.Fabric)
	}
	if cfg.Hedge.Enabled {
		// Hedge defaults are SLO-relative, resolved against the built
		// node config (the profile default lives in the server assembly).
		slo := c.Nodes[0].Srv.Cfg.Profile.SLO
		if c.Cfg.Hedge.Quantile == 0 {
			c.Cfg.Hedge.Quantile = 0.95
		}
		if c.Cfg.Hedge.Min == 0 {
			c.Cfg.Hedge.Min = slo / 2
		}
		if c.Cfg.Hedge.Max == 0 {
			c.Cfg.Hedge.Max = 4 * slo
		}
	}
	c.router = newRouter(c)
	c.health = newHealth(c)
	if cfg.FleetPowerCapW > 0 {
		c.cap = &powerCap{c: c, capW: cfg.FleetPowerCapW}
	}
	// The cluster arms only the node- and link-level fault classes; each
	// node's own injector arms the per-core classes, so nothing is armed
	// twice.
	if nf := cfg.Node.Faults.Only(faults.ClusterLayer); nf.Enabled() {
		c.inj = faults.New(nf, sim.NewRNG(cfg.Node.Seed^0x9e3779b97f4a7c15))
	}
	// The front end is node 0's generator rewired through the router:
	// the offered load is generated exactly once for the whole fleet.
	c.Nodes[0].Srv.Gen.Deliver = c.router.route
	for i, n := range c.Nodes {
		i, n := i, n
		prevDone := n.Srv.OnDone
		n.Srv.OnDone = func(r *workload.Request) {
			if prevDone != nil {
				prevDone(r)
			}
			c.onNodeDone(i, r)
		}
		n.Srv.OnFail = func(r *workload.Request) { c.onNodeFail(i, r) }
	}
	scfg := c.Nodes[0].Srv.Cfg
	if scfg.StreamingHist {
		c.hist = stats.NewStreamingHist()
	} else {
		c.hist = stats.NewHist(int(server.EstimatedHistBytes(scfg) / 8))
	}
	return c, nil
}

// validate rejects configurations New cannot assemble.
func validate(cfg Config) error {
	if cfg.Nodes < 1 {
		return fmt.Errorf("cluster: need at least 1 node, got %d", cfg.Nodes)
	}
	switch cfg.Route {
	case "", "rr", "least", "weighted", "flow":
	default:
		return fmt.Errorf("cluster: unknown route policy %q (want rr, least, weighted, flow)", cfg.Route)
	}
	if len(cfg.Weights) > 0 {
		if len(cfg.Weights) != cfg.Nodes {
			return fmt.Errorf("cluster: %d weights for %d nodes", len(cfg.Weights), cfg.Nodes)
		}
		for i, w := range cfg.Weights {
			if w <= 0 {
				return fmt.Errorf("cluster: non-positive weight %g for node %d", w, i)
			}
		}
	}
	if cfg.RouteRetries < 0 {
		return fmt.Errorf("cluster: negative route retry budget %d", cfg.RouteRetries)
	}
	if cfg.FleetPowerCapW < 0 {
		return fmt.Errorf("cluster: negative fleet power cap %g W", cfg.FleetPowerCapW)
	}
	if cfg.Health.ProbeEvery < 0 || cfg.Health.MarkDownAfter < 0 || cfg.Health.HalfOpenSuccess < 0 ||
		cfg.Health.ProbeTimeout < 0 || cfg.Health.FlapHold < 0 || cfg.Health.FlapMaxHold < 0 {
		return fmt.Errorf("cluster: negative health parameter in %+v", cfg.Health)
	}
	if cfg.Fabric.Base < 0 || cfg.Fabric.Serve < 0 || cfg.Fabric.Jitter < 0 || cfg.Fabric.MaxQueue < 0 {
		return fmt.Errorf("cluster: negative fabric parameter in %+v", cfg.Fabric)
	}
	if cfg.Hedge.Enabled {
		if cfg.Hedge.Quantile < 0 || cfg.Hedge.Quantile >= 1 {
			return fmt.Errorf("cluster: hedge quantile %g outside [0, 1)", cfg.Hedge.Quantile)
		}
		if cfg.Hedge.Min < 0 || cfg.Hedge.Max < 0 {
			return fmt.Errorf("cluster: negative hedge delay bound in %+v", cfg.Hedge)
		}
		if cfg.Hedge.Min > 0 && cfg.Hedge.Max > 0 && cfg.Hedge.Min > cfg.Hedge.Max {
			return fmt.Errorf("cluster: hedge Min %v exceeds Max %v", cfg.Hedge.Min, cfg.Hedge.Max)
		}
	}
	if err := cfg.Node.Faults.CheckRange(faults.ClusterLayer, cfg.Nodes); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return cfg.Node.Validate()
}

// Start arms every node, the node-fault schedule, the health prober,
// the power-cap coordinator, and finally the front-end generator.
func (c *Cluster) Start() {
	for _, n := range c.Nodes {
		n.Srv.StartNode()
	}
	hooks := map[string]faults.Hook{
		"nodecrash": {On: c.crashNode, Off: c.recoverNode},
		"nodeslow":  {On: c.slowNode, Off: c.unslowNode},
	}
	if c.fabric != nil {
		hooks["partition"] = faults.Hook{On: c.fabric.cut, Off: c.fabric.heal}
		hooks["linkslow"] = faults.Hook{On: c.fabric.slowLink, Off: c.fabric.unslowLink}
		hooks["linkloss"] = faults.Hook{On: c.fabric.lossOn, Off: c.fabric.lossOff}
	}
	c.inj.Arm(c.Eng, hooks)
	c.health.start()
	if c.cap != nil {
		c.cap.start()
	}
	c.Nodes[0].Srv.Gen.Start()
}

// Run executes warmup + measurement on the shared engine and returns
// the cluster result. ctx cancellation aborts the run at the next
// simulated millisecond (the abort ticker reads only the context, so
// an uncancelled run's physics are untouched); the Result is valid
// either way — a cancelled run summarises every node as of the abort
// instant, in node order.
func (c *Cluster) Run(ctx context.Context) (Result, error) {
	c.Start()
	if ctx != nil && ctx.Done() != nil {
		c.Eng.Ticker(sim.Millisecond, func() {
			if ctx.Err() != nil {
				c.Eng.Abort(fmt.Errorf("cluster: run canceled at %v: %w", c.Eng.Now(), ctx.Err()))
			}
		})
	}
	scfg := c.Nodes[0].Srv.Cfg
	c.Eng.Run(sim.Time(scfg.Warmup))
	c.BeginMeasurement()
	c.Eng.Run(sim.Time(scfg.Warmup + scfg.Duration))
	res := c.Collect()
	return res, errors.Join(c.Eng.Err(), res.Audit.Err())
}

// BeginMeasurement opens the measured window on every node and the
// cluster's own recorder at the current instant.
func (c *Cluster) BeginMeasurement() {
	for _, n := range c.Nodes {
		n.Srv.BeginMeasurement()
	}
	c.measuring = true
	c.measFrom = c.Eng.Now()
	c.baselineE = c.totalEnergyJ()
}

func (c *Cluster) totalEnergyJ() float64 {
	var e float64
	for _, n := range c.Nodes {
		e += n.Srv.Proc.PackageEnergyJ()
	}
	return e
}

// Accounting returns the front-end ledger as of now, with InFlight
// filled in.
func (c *Cluster) Accounting() Accounting {
	a := c.router.acct
	a.InFlight = a.Issued - a.Completed - a.Failed - a.Unroutable
	return a
}

// OfflineNodes counts nodes currently held down by a node-level crash.
func (c *Cluster) OfflineNodes() int {
	down := 0
	for _, n := range c.Nodes {
		if n.Srv.NodeDown() {
			down++
		}
	}
	return down
}

// RoutableNodes counts nodes the router would currently dispatch to.
func (c *Cluster) RoutableNodes() int {
	up := 0
	for i := range c.Nodes {
		if c.routable(i) {
			up++
		}
	}
	return up
}

// routable reports whether the router may dispatch to node i: the
// health prober has not marked it down (half-open counts as routable —
// that is the trial traffic that closes the circuit).
func (c *Cluster) routable(i int) bool { return c.health.routable(i) }

// onNodeDone is every node's completion hook: the response enters the
// return leg of the fabric (when modeled) or settles at the front end
// directly. live is decremented here either way — it counts node-side
// in-flight; copies on the wire are the fabric's in-transit ledger.
func (c *Cluster) onNodeDone(i int, r *workload.Request) {
	c.Nodes[i].live--
	if c.fabric != nil {
		c.fabric.sendResp(i, r)
		return
	}
	c.settleDone(i, r)
}

// settleDone is the front end's completion landing — directly from the
// node hook when the fabric is off, or after the response's return leg
// when it is on. With hedging armed, only the first copy wins; a losing
// duplicate is absorbed into the hedge ledger (its latency still feeds
// the hedge delay tracker, and its node still earns health credit —
// the response is real). r is valid only for the duration of the call.
func (c *Cluster) settleDone(i int, r *workload.Request) {
	if h := c.router.h; h != nil {
		h.observe(c.Eng.Now(), r)
		if !h.onCopyDone(r.ID) {
			c.health.observeSuccess(i)
			return
		}
	}
	c.router.forget(r.ID)
	c.router.acct.Completed++
	c.health.observeSuccess(i)
	if c.measuring {
		c.hist.Add(r.Latency())
	}
	if c.OnDone != nil {
		c.OnDone(r)
	}
}

// onNodeFail is every node's terminal-failure hook — the resteer point.
// Failure notifications are front-side state (the client RTO timer
// lives at the front end conceptually), so they do not traverse the
// fabric. The failed record is about to be recycled by its node, so the
// router copies what it needs into a fresh record before resubmitting.
func (c *Cluster) onNodeFail(i int, r *workload.Request) {
	c.Nodes[i].live--
	c.health.observeFailure(i)
	c.router.copyFailed(i, r)
}

// crashNode / recoverNode / slowNode / unslowNode adapt the node-fault
// schedule to node lifecycles (bounds are validated at New).
func (c *Cluster) crashNode(w faults.Window) bool   { return c.Nodes[w.Target].Srv.CrashNode() }
func (c *Cluster) recoverNode(w faults.Window) bool { return c.Nodes[w.Target].Srv.RecoverNode() }
func (c *Cluster) slowNode(w faults.Window) bool    { return c.Nodes[w.Target].Srv.SlowNode(w.X) }
func (c *Cluster) unslowNode(w faults.Window) bool {
	c.Nodes[w.Target].Srv.RestoreSpeed()
	return true
}

// Collect summarises the fleet as of now: every node's own result (in
// node order), the merged front-end view, and — when auditing — the
// per-node reports merged with the cluster conservation rule.
func (c *Cluster) Collect() Result {
	energy := c.totalEnergyJ() - c.baselineE
	window := float64(c.Eng.Now()-c.measFrom) / 1e9
	sum := c.hist.Summarize()
	scfg := c.Nodes[0].Srv.Cfg
	res := Result{
		Summary:     sum,
		EnergyJ:     energy,
		SLO:         scfg.Profile.SLO,
		FracOverSLO: 1 - c.hist.FracLE(scfg.Profile.SLO),
		Violated:    sum.P99 > scfg.Profile.SLO,
		Front:       c.Accounting(),
		Faults:      c.inj.Stats(),
		MarkDowns:   c.health.markDowns,
		MarkUps:     c.health.markUps,
	}
	if c.cap != nil {
		res.CapInterventions = c.cap.interventions
	}
	if c.fabric != nil {
		res.Fabric = c.fabric.snapshot()
	}
	if window > 0 {
		res.AvgPowerW = energy / window
	}
	for _, n := range c.Nodes {
		res.Nodes = append(res.Nodes, n.Srv.Collect())
	}
	if scfg.Audit {
		rep := &audit.Report{}
		cf := audit.ClusterFinal{
			FrontIssued:       res.Front.Issued,
			FrontCompleted:    res.Front.Completed,
			FrontFailed:       res.Front.Failed,
			FrontUnroutable:   res.Front.Unroutable,
			FrontInFlight:     res.Front.InFlight,
			Resteers:          res.Front.Resteers,
			Hedges:            res.Front.Hedges,
			HedgeDupDone:      res.Front.HedgeDupDone,
			HedgeDupFail:      res.Front.HedgeDupFail,
			FabricReqLost:     res.Fabric.ReqLost,
			FabricRespLost:    res.Fabric.RespLost,
			FabricReqTransit:  res.Fabric.ReqInTransit,
			FabricRespTransit: res.Fabric.RespInTransit,
		}
		for _, nr := range res.Nodes {
			rep.Merge(nr.Audit)
			cf.NodeIssued = append(cf.NodeIssued, nr.Reqs.Issued)
			cf.NodeCompleted = append(cf.NodeCompleted, nr.Reqs.Completed)
			cf.NodeFailed = append(cf.NodeFailed, nr.Reqs.TimedOut+nr.Reqs.Lost+nr.Reqs.Shed)
			cf.NodeInFlight = append(cf.NodeInFlight, nr.Reqs.InFlight)
		}
		rep.Merge(audit.CheckCluster(c.Eng.Now(), cf))
		res.Audit = rep
	}
	return res
}
