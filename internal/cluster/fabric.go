package cluster

import (
	"nmapsim/internal/faults"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// The fabric models the front-end↔node interconnect as simulated
// events: each leg of the star (front→node requests, node→front
// responses) carries a base propagation delay, a bounded M/D/1-style
// queueing term driven by the copies already in transit on that leg,
// and optional exponential jitter drawn from the fabric's own seeded
// side stream. Link faults (partition / linkslow / linkloss) act on the
// legs: a copy entering or landing on a cut leg is dropped silently —
// the front end only ever learns through its own probes, hedges and
// timeouts — and every drop is counted so the cluster conservation
// identities still close.
//
// Zero-cost contract: the fabric pointer is nil unless the model is
// configured or a link fault is scheduled, and a traversal whose
// computed delay is zero with no drop is delivered inline, no event and
// no PRNG draw — so a fabric armed only with link faults past the run
// horizon is byte-identical to the zero-cost front end.

// FabricConfig parameterises the modeled interconnect. The zero value
// keeps the zero-cost direct-call front end.
type FabricConfig struct {
	// Base is the one-way propagation delay per leg.
	Base sim.Duration
	// Serve is the per-copy serialisation time of the queueing term: a
	// leg with q copies already in transit delays the next copy by an
	// extra Serve×min(q, MaxQueue) — a bounded M/D/1-style backlog.
	Serve sim.Duration
	// MaxQueue bounds the queueing term (default 64 when Serve > 0).
	MaxQueue int
	// Jitter is the mean of an exponential extra delay per traversal,
	// drawn from the fabric's own seeded side stream.
	Jitter sim.Duration
}

// Enabled reports whether the model adds any latency.
func (f FabricConfig) Enabled() bool { return f.Base > 0 || f.Serve > 0 || f.Jitter > 0 }

// FabricStats is the interconnect ledger, part of Result and of the
// cluster conservation identities: copies on the wire and copies
// dropped by a cut or lossy leg are accounted, never vanished.
type FabricStats struct {
	// ReqLost counts request copies dropped on the front→node leg —
	// either sent into a cut or lossy link, or in flight when the cut
	// fired. The front end is not notified (gray semantics).
	ReqLost uint64
	// RespLost counts responses dropped on the node→front leg: the node
	// completed the work but the front end never hears — the one-way-
	// partition orphans.
	RespLost uint64
	// ReqInTransit / RespInTransit count copies on the wire at the
	// snapshot instant.
	ReqInTransit, RespInTransit uint64
}

// transit is one pooled in-flight traversal.
type transit struct {
	node int
	r    *workload.Request
}

// fabricSeedMix derives the fabric's PRNG side stream from the node
// seed. Distinct from the fault injector's golden-ratio mix so the two
// streams never collide.
const fabricSeedMix = 0xd1b54a32d192ed03

type fabric struct {
	c   *Cluster
	cfg FabricConfig
	rng *sim.RNG

	// Per-node leg state: nested cut counts per direction, the linkslow
	// stretch factor (1 = nominal), the linkloss per-traversal drop
	// probability (0 = lossless), and the in-transit copy counts that
	// drive the queueing term.
	cutTx, cutRx []int
	slowF        []float64
	lossP        []float64
	txQ, rxQ     []int

	free  []*transit
	stats FabricStats

	landReqFn, landRespFn func(any)
}

func newFabric(c *Cluster, cfg FabricConfig) *fabric {
	if cfg.Serve > 0 && cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	n := c.Cfg.Nodes
	f := &fabric{
		c: c, cfg: cfg,
		cutTx: make([]int, n), cutRx: make([]int, n),
		slowF: make([]float64, n), lossP: make([]float64, n),
		txQ: make([]int, n), rxQ: make([]int, n),
	}
	for i := range f.slowF {
		f.slowF[i] = 1
	}
	f.rng = sim.NewRNG(c.Cfg.Node.Seed ^ fabricSeedMix)
	f.landReqFn = f.landReq
	f.landRespFn = f.landResp
	return f
}

// legDelay is the deterministic part of one traversal's delay: base +
// queueing term for q copies already in transit, stretched by any
// linkslow in effect. No PRNG touched — the health prober reuses it as
// its delay estimate.
func (f *fabric) legDelay(node, q int) sim.Duration {
	d := f.cfg.Base
	if f.cfg.Serve > 0 {
		if q > f.cfg.MaxQueue {
			q = f.cfg.MaxQueue
		}
		d += f.cfg.Serve * sim.Duration(q)
	}
	if s := f.slowF[node]; s != 1 {
		d = sim.Duration(float64(d) * s)
	}
	return d
}

// delay samples one traversal's full delay (jitter included).
func (f *fabric) delay(node, q int) sim.Duration {
	d := f.legDelay(node, q)
	if f.cfg.Jitter > 0 {
		d += f.rng.ExpDur(f.cfg.Jitter)
	}
	return d
}

// lose draws the lossy-link decision for one traversal.
func (f *fabric) lose(node int) bool {
	return f.lossP[node] > 0 && f.rng.Float64() < f.lossP[node]
}

// sendReq carries one request copy across the front→node leg. A copy
// entering a cut or lossy leg is dropped silently and counted; a
// zero-delay lossless traversal is delivered inline.
func (f *fabric) sendReq(node int, r *workload.Request) {
	if f.cutTx[node] > 0 || f.lose(node) {
		f.stats.ReqLost++
		f.c.Nodes[0].Srv.Pool().Put(r)
		return
	}
	d := f.delay(node, f.txQ[node])
	if d == 0 {
		f.c.Nodes[node].Inject(r)
		return
	}
	f.txQ[node]++
	f.c.Eng.ScheduleArg(d, f.landReqFn, f.getTransit(node, r))
}

func (f *fabric) landReq(a any) {
	t := a.(*transit)
	node, r := t.node, t.r
	f.putTransit(t)
	f.txQ[node]--
	if f.cutTx[node] > 0 {
		// The cut fired while the copy was on the wire.
		f.stats.ReqLost++
		f.c.Nodes[0].Srv.Pool().Put(r)
		return
	}
	f.c.Nodes[node].Inject(r)
}

// sendResp carries one response across the node→front leg. The node
// recycles its record when the completion hook returns, so a non-inline
// traversal copies what the front end needs into a fresh pooled record
// that the transit owns until landing.
func (f *fabric) sendResp(node int, r *workload.Request) {
	if f.cutRx[node] > 0 || f.lose(node) {
		f.stats.RespLost++
		return
	}
	d := f.delay(node, f.rxQ[node])
	if d == 0 {
		f.c.settleDone(node, r)
		return
	}
	cr := f.c.Nodes[0].Srv.Pool().Get()
	cr.ID, cr.Flow, cr.Sent, cr.Done = r.ID, r.Flow, r.Sent, r.Done
	cr.AppCycles, cr.Dispatched = r.AppCycles, r.Dispatched
	f.rxQ[node]++
	f.c.Eng.ScheduleArg(d, f.landRespFn, f.getTransit(node, cr))
}

func (f *fabric) landResp(a any) {
	t := a.(*transit)
	node, r := t.node, t.r
	f.putTransit(t)
	f.rxQ[node]--
	if f.cutRx[node] > 0 {
		f.stats.RespLost++
		f.c.Nodes[0].Srv.Pool().Put(r)
		return
	}
	// The front end's completion instant includes the return leg.
	r.Done = f.c.Eng.Now()
	f.c.settleDone(node, r)
	f.c.Nodes[0].Srv.Pool().Put(r)
}

// cut severs the targeted leg(s), reporting whether any went from
// connected to cut; heal restores exactly what cut severed and always
// reports true, so every heal is counted. Overlapping cuts nest per leg.
func (f *fabric) cut(w faults.Window) bool {
	tx := w.Dir == faults.LinkBoth || w.Dir == faults.LinkTx
	rx := w.Dir == faults.LinkBoth || w.Dir == faults.LinkRx
	took := (tx && f.cutTx[w.Target] == 0) || (rx && f.cutRx[w.Target] == 0)
	if !took {
		return false
	}
	if tx {
		f.cutTx[w.Target]++
	}
	if rx {
		f.cutRx[w.Target]++
	}
	return true
}

func (f *fabric) heal(w faults.Window) bool {
	if (w.Dir == faults.LinkBoth || w.Dir == faults.LinkTx) && f.cutTx[w.Target] > 0 {
		f.cutTx[w.Target]--
	}
	if (w.Dir == faults.LinkBoth || w.Dir == faults.LinkRx) && f.cutRx[w.Target] > 0 {
		f.cutRx[w.Target]--
	}
	return true
}

func (f *fabric) slowLink(w faults.Window) bool {
	if f.slowF[w.Target] != 1 {
		return false
	}
	f.slowF[w.Target] = w.X
	return true
}

func (f *fabric) unslowLink(w faults.Window) bool {
	f.slowF[w.Target] = 1
	return true
}

func (f *fabric) lossOn(w faults.Window) bool {
	if f.lossP[w.Target] > 0 {
		return false
	}
	f.lossP[w.Target] = w.X
	return true
}

func (f *fabric) lossOff(w faults.Window) bool {
	f.lossP[w.Target] = 0
	return true
}

// linkCut reports whether either leg of node's link is severed — the
// health prober's view (a probe can neither reach nor hear across a
// cut).
func (f *fabric) linkCut(node int) bool { return f.cutTx[node] > 0 || f.cutRx[node] > 0 }

// snapshot returns the ledger with the in-transit populations filled
// in as of now.
func (f *fabric) snapshot() FabricStats {
	s := f.stats
	for _, q := range f.txQ {
		s.ReqInTransit += uint64(q)
	}
	for _, q := range f.rxQ {
		s.RespInTransit += uint64(q)
	}
	return s
}

func (f *fabric) getTransit(node int, r *workload.Request) *transit {
	if n := len(f.free); n > 0 {
		t := f.free[n-1]
		f.free = f.free[:n-1]
		t.node, t.r = node, r
		return t
	}
	return &transit{node: node, r: r}
}

func (f *fabric) putTransit(t *transit) {
	t.r = nil
	f.free = append(f.free, t)
}
