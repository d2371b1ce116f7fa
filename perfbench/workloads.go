package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math"
	"sync"
	"time"

	"nmapsim/internal/cluster"
	"nmapsim/internal/experiments"
	"nmapsim/internal/faults"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// workloadDef is one named benchmark workload. A pass runs every cell of
// the workload once; tr is nil for an untraced pass, which drives the
// simulator through the harness entry points only.
type workloadDef struct {
	name string
	pass func(seed uint64, tr *tracer) *pass
}

var workloads = []workloadDef{
	{"mc-high-nmap", func(seed uint64, tr *tracer) *pass {
		return specPass([]experiments.Spec{serverSpec(workload.Memcached(), workload.High, seed)}, tr)
	}},
	{"ng-low-nmap", func(seed uint64, tr *tracer) *pass {
		return specPass([]experiments.Spec{serverSpec(workload.Nginx(), workload.Low, seed)}, tr)
	}},
	{"fig12-quick", func(seed uint64, tr *tracer) *pass { return specPass(fig12Specs(seed), tr) }},
	{"fleet-gray-hedged", fleetPass},
}

// serverSpec is a single-server cell: the nmap policy, menu idle, the
// exact latency histogram, and a 200ms warmup before a 1s measured
// window.
func serverSpec(p *workload.Profile, lvl workload.Level, seed uint64) experiments.Spec {
	return experiments.Spec{Policy: "nmap", Idle: "menu", Cfg: server.Config{
		Seed: seed, Profile: p, Level: lvl,
		Warmup: 200 * sim.Millisecond, Duration: sim.Duration(sim.Second),
	}}
}

// fig12Specs is the cell list of experiments.Fig12And13(Quick), with the
// seed the benchmark was given in place of the harness's fixed one.
func fig12Specs(seed uint64) []experiments.Spec {
	var specs []experiments.Spec
	for _, p := range workload.Profiles() {
		for _, lvl := range workload.Levels {
			for _, pol := range []string{"intel_powersave", "ondemand", "performance", "nmap-simpl", "nmap"} {
				specs = append(specs, experiments.Spec{Policy: pol, Idle: "menu", Cfg: server.Config{
					Seed: seed, Profile: p, Level: lvl,
					Warmup: 100 * sim.Millisecond, Duration: 300 * sim.Millisecond,
				}})
			}
		}
	}
	return specs
}

// fleetConfig is a 4-node memcached fleet at half the high load per
// node: round-robin routing with route retries, client retransmissions,
// a flap-damped health prober, hedged requests, the modeled interconnect,
// and the fig-grayfail link faults on node 1 (three slow windows, a
// one-way partition of the response leg, a lossy window), all audited.
func fleetConfig(seed uint64) cluster.Config {
	const nodes, grayNode = 4, 1
	p := workload.Memcached()
	warm, dur := 100*sim.Millisecond, 300*sim.Millisecond
	var f faults.Config
	for _, at := range []sim.Duration{warm + dur/8, warm + dur/4, warm + 3*dur/8} {
		f.LinkSlows = append(f.LinkSlows, faults.LinkSlow{Node: grayNode, At: at, Duration: dur / 16, Factor: 8})
	}
	f.Partitions = []faults.Partition{{Node: grayNode, Dir: faults.LinkRx, At: warm + 5*dur/8, Duration: dur / 8}}
	f.LinkLosses = []faults.LinkLoss{{Node: grayNode, At: warm + 13*dur/16, Duration: dur / 16, Prob: 0.05}}
	return cluster.Config{
		Nodes:        nodes,
		Route:        "rr",
		RouteRetries: 2,
		Health:       cluster.HealthConfig{ProbeTimeout: 20 * sim.Microsecond, FlapHold: dur / 8},
		Hedge:        cluster.HedgeConfig{Enabled: true},
		Fabric:       cluster.FabricConfig{Base: 4 * sim.Microsecond, Serve: 200 * sim.Nanosecond, Jitter: sim.Microsecond},
		Node: server.Config{
			Seed: seed, Profile: p, RPS: p.HighRPS * 0.5 * nodes,
			Warmup: warm, Duration: dur,
			Faults: f,
			Retry:  workload.RetryConfig{Timeout: 5 * sim.Millisecond},
			Audit:  true,
		},
	}
}

// engineSlices is how many engine.Run steps a traced run splits the measured
// window into; the engine's queue length is sampled after each.
const engineSlices = 20

// pass is the outcome of one pass over a workload's cells.
type pass struct {
	setup, run time.Duration
	issued     uint64 // simulated requests issued across the cells
	cells      int
	workers    int // goroutines the cells of a traced pass ran on
	failures   []string
	digest     hash.Hash // SHA-256 over every cell's physics
	th         thresholds
	// counts is filled by traced passes only.
	counts layerCounts
}

func newPass() *pass { return &pass{digest: sha256.New(), th: thresholds{}} }

func (p *pass) fail(cell, why string) { p.failures = append(p.failures, cell+": "+why) }

// physics is the digest line of one server's simulated results.
func physics(r server.Result) string {
	return fmt.Sprintf("p50=%d p99=%d energy=%x transitions=%d completed=%d",
		r.Summary.P50, r.Summary.P99, math.Float64bits(r.EnergyJ), r.Transitions, r.Completed)
}

// addServer folds one single-server cell into the pass: its physics into
// the digest and its correctness checks into the failures.
func (p *pass) addServer(cell string, r server.Result, err error) {
	p.cells++
	p.issued += r.Reqs.Issued
	fmt.Fprintf(p.digest, "%s %s\n", cell, physics(r))
	switch {
	case err != nil:
		p.fail(cell, err.Error())
	case !r.Reqs.Consistent():
		p.fail(cell, fmt.Sprintf("request ledger broken: %+v", r.Reqs))
	case r.Audit.Failed():
		p.fail(cell, r.Audit.Err().Error())
	case r.Completed == 0:
		p.fail(cell, "no request completed")
	}
}

// addCluster folds one fleet cell into the pass.
func (p *pass) addCluster(cell string, r cluster.Result, err error) {
	p.cells++
	p.issued += r.Front.Issued
	fmt.Fprintf(p.digest, "%s front p50=%d p99=%d energy=%x completed=%d\n",
		cell, r.Summary.P50, r.Summary.P99, math.Float64bits(r.EnergyJ), r.Front.Completed)
	for i, n := range r.Nodes {
		fmt.Fprintf(p.digest, "%s node%d %s\n", cell, i, physics(n))
	}
	switch {
	case err != nil:
		p.fail(cell, err.Error())
	case !r.Front.Consistent():
		p.fail(cell, fmt.Sprintf("front-end ledger broken: %+v", r.Front))
	case r.Audit == nil:
		p.fail(cell, "audit report missing")
	case r.Audit.Failed():
		p.fail(cell, r.Audit.Err().Error())
	case r.Front.Completed == 0:
		p.fail(cell, "no request completed")
	}
}

// layerCounts are the deterministic per-layer counts of a traced pass.
type layerCounts struct {
	fired                       uint64
	pktIntr, pktPoll, irqs      uint64
	ksoftirqdWakes, rxDrops     uint64
	sockQMax                    int
	cc6, transitions            int64
	busySum                     float64
	cores                       int
	allocBytes                  uint64
	hedges, resteers, markdowns uint64
	fabricLost, faults, audit   uint64
}

func (c *layerCounts) addServer(s *server.Server, r server.Result) {
	for _, k := range s.Kernels {
		kc := k.Counters()
		c.pktIntr += kc.PktIntr
		c.pktPoll += kc.PktPoll
		c.irqs += kc.Interrupts
		c.ksoftirqdWakes += kc.KsoftirqdWakes
		c.sockQMax = max(c.sockQMax, kc.MaxSockQ)
	}
	for _, cs := range r.PerCore {
		c.cc6 += cs.CC6Entries
		c.busySum += cs.BusyFrac
		c.cores++
	}
	c.transitions += r.Transitions
	c.rxDrops += r.Drops
	c.faults += injected(r.Faults)
	if r.Audit != nil {
		c.audit += r.Audit.Total
	}
}

func (c *layerCounts) add(o layerCounts) {
	c.fired += o.fired
	c.pktIntr += o.pktIntr
	c.pktPoll += o.pktPoll
	c.irqs += o.irqs
	c.ksoftirqdWakes += o.ksoftirqdWakes
	c.rxDrops += o.rxDrops
	c.sockQMax = max(c.sockQMax, o.sockQMax)
	c.cc6 += o.cc6
	c.transitions += o.transitions
	c.busySum += o.busySum
	c.cores += o.cores
	c.faults += o.faults
	c.audit += o.audit
}

// injected counts the faults a run actually injected; recoveries and
// heals end a fault rather than inject one.
func injected(f faults.Stats) uint64 {
	return f.WireDrops + f.IRQsLost + f.Throttles + f.CoreCrashes + f.QueueStalls +
		f.NodeCrashes + f.NodeSlows + f.Partitions + f.LinkSlows + f.LinkLosses
}

// specPass runs a list of server cells as one pass. Untraced, a single
// cell is built with experiments.Build and run with server.Run, and
// several go through experiments.RunSpecsCtx on the harness pool.
// Traced, every cell is built by assemble and stepped in slices, on as
// many goroutines as the harness pool has workers.
func specPass(specs []experiments.Spec, tr *tracer) *pass {
	p := newPass()
	t0 := time.Now()
	root := tr.begin("pass", -1)
	defer tr.end(root)
	sp := tr.begin("profile", root)
	for i := range specs {
		if specs[i].Policy == "nmap" {
			specs[i].Thresholds = p.th.get(specs[i].Cfg.Profile, specs[i].Cfg.Seed)
		}
	}
	tr.end(sp)
	switch {
	case tr != nil:
		p.setup = time.Since(t0)
		tracedCells(p, specs, tr, root)
	case len(specs) == 1:
		s, err := experiments.Build(specs[0])
		if err != nil {
			p.fail(label(specs[0]), err.Error())
			return p
		}
		p.setup = time.Since(t0)
		t1 := time.Now()
		r, err := s.Run()
		p.run = time.Since(t1)
		p.addServer(label(specs[0]), r, err)
	default:
		p.setup = time.Since(t0)
		t1 := time.Now()
		cells, _ := experiments.RunSpecsCtx(context.Background(), specs)
		p.run = time.Since(t1)
		for i, c := range cells {
			p.addServer(label(specs[i]), c.Result, c.Err)
		}
	}
	return p
}

func label(s experiments.Spec) string {
	return fmt.Sprintf("%s/%s/%s", s.Cfg.Profile.Name, s.Cfg.Level, s.Policy)
}

// tracedCells runs specs through assemble on a worker pool the size of
// the harness's, each cell recording into its own tracer that is merged
// into tr afterwards, with the CPU profile covering the whole run.
func tracedCells(p *pass, specs []experiments.Spec, tr *tracer, root int) {
	type out struct {
		res    server.Result
		err    error
		counts layerCounts
		tr     *tracer
	}
	outs := make([]out, len(specs))
	workers := min(experiments.Parallelism(), len(specs))
	err := tr.measure(p, root, func(cells int) {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					o := &outs[i]
					o.tr = tr.fork()
					o.res, o.err = tracedServer(specs[i], o.tr, &o.counts)
				}
			}()
		}
		for i := range specs {
			next <- i
		}
		close(next)
		wg.Wait()
		for i := range outs {
			tr.join(outs[i].tr, cells)
		}
	})
	if err != nil {
		p.fail("trace", err.Error())
	}
	for i, o := range outs {
		p.addServer(label(specs[i]), o.res, o.err)
		p.counts.add(o.counts)
	}
	p.workers = workers
}

// tracedServer builds and steps one cell, recording spans into tr.
func tracedServer(spec experiments.Spec, tr *tracer, c *layerCounts) (r server.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	cell := tr.begin("cell", -1)
	defer tr.end(cell)
	b := tr.begin("build", cell)
	s, err := assemble(spec, spec.Thresholds, sim.NewEngine(), tr)
	tr.end(b)
	if err != nil {
		return r, err
	}
	s.Start()
	stepRun(tr, cell, s.Eng, s.Cfg.Warmup, s.Cfg.Duration, s.BeginMeasurement)
	col := tr.begin("collect", cell)
	r = s.Collect()
	tr.end(col)
	c.fired += s.Eng.Fired()
	c.addServer(s, r)
	return r, errors.Join(s.Eng.Err(), r.Audit.Err())
}

// stepRun drives eng through the warmup and then the measured window in
// slices, sampling the engine's queue length after each; begin opens the
// measured window, as server.Run and cluster.Run do at warmup end.
func stepRun(tr *tracer, parent int, eng *sim.Engine, warm, dur sim.Duration, begin func()) {
	sp := tr.begin("warmup", parent)
	eng.Run(sim.Time(warm))
	tr.end(sp)
	begin()
	run := tr.begin("run", parent)
	for i := 1; i <= engineSlices; i++ {
		sp := tr.begin("slice", run)
		eng.Run(sim.Time(warm + dur*sim.Duration(i)/engineSlices))
		tr.end(sp)
		tr.samplePending(eng)
	}
	tr.end(run)
}

// fleetPass runs the fleet as one cell. Every node's nmap thresholds are
// profiled inside cluster.New, as BuildOn would on a cold cache; nodes
// are built by experiments.BuildOn untraced and by assemble traced.
func fleetPass(seed uint64, tr *tracer) *pass {
	p := newPass()
	cfg := fleetConfig(seed)
	t0 := time.Now()
	root := tr.begin("pass", -1)
	defer tr.end(root)
	asm := tr.begin("assemble", root)
	node := func(_ int, ncfg server.Config, eng *sim.Engine) (*server.Server, error) {
		spec := experiments.Spec{Policy: "nmap", Idle: "menu", Cfg: ncfg}
		if tr == nil {
			spec.Thresholds = p.th.get(ncfg.Profile, ncfg.Seed)
			return experiments.BuildOn(spec, eng)
		}
		sp := tr.begin("profile", asm)
		spec.Thresholds = p.th.get(ncfg.Profile, ncfg.Seed)
		tr.end(sp)
		sp = tr.begin("build", asm)
		defer tr.end(sp)
		return assemble(spec, spec.Thresholds, eng, tr)
	}
	cl, err := cluster.New(cfg, node)
	p.setup = time.Since(t0)
	tr.end(asm)
	if err != nil {
		p.fail("fleet", err.Error())
		return p
	}
	var r cluster.Result
	if tr == nil {
		t1 := time.Now()
		r, err = cl.Run(context.Background())
		p.run = time.Since(t1)
	} else {
		terr := tr.measure(p, root, func(parent int) {
			cell := tr.begin("cell", parent)
			cl.Start()
			stepRun(tr, cell, cl.Eng, cfg.Node.Warmup, cfg.Node.Duration, cl.BeginMeasurement)
			col := tr.begin("collect", cell)
			r = cl.Collect()
			tr.end(col)
			tr.end(cell)
			err = errors.Join(cl.Eng.Err(), r.Audit.Err())
		})
		if terr != nil {
			p.fail("trace", terr.Error())
		}
		p.workers = 1
		c := &p.counts
		c.fired = cl.Eng.Fired()
		for i, n := range cl.Nodes {
			c.addServer(n.Srv, r.Nodes[i])
		}
		c.faults += injected(r.Faults)
		if r.Audit != nil {
			c.audit = r.Audit.Total
		}
		c.hedges, c.resteers, c.markdowns = r.Front.Hedges, r.Front.Resteers, r.MarkDowns
		c.fabricLost = r.Fabric.ReqLost + r.Fabric.RespLost
	}
	p.addCluster("fleet", r, err)
	return p
}
