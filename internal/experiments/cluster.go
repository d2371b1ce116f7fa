package experiments

import (
	"context"
	"fmt"
	"strings"

	"nmapsim/internal/cluster"
	"nmapsim/internal/cpu"
	"nmapsim/internal/faults"
	"nmapsim/internal/report"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// ---------------------------------------------------------------------
// Fig cluster: fleet-level resilience — cluster P99 / energy / offline-
// node timeline through a node crash, per-node governors vs a fleet
// power cap.
// ---------------------------------------------------------------------

// ClusterBucket is one time slice of the fleet timeline.
type ClusterBucket struct {
	// FromMs is the bucket's start, in ms since the run began.
	FromMs int
	// Done is the number of front-end completions in the bucket.
	Done int
	// P99 is the P99 front-end response time of those completions.
	P99 sim.Duration
	// Resteers counts router resubmissions dispatched during the bucket.
	Resteers uint64
	// Offline is the number of offline nodes at the bucket's end.
	Offline int
}

// ClusterArm is one pass through the fleet scenario.
type ClusterArm struct {
	Name string
	// CapW is the fleet power budget (0 = per-node governors only).
	CapW    float64
	Buckets []ClusterBucket
	Result  cluster.Result
	// Done is false when the arm was cut short (ctx cancellation): the
	// Result then summarises the fleet as of the abort instant, every
	// node still present in input order.
	Done bool
}

// ClusterFigure is the fig-cluster result.
type ClusterFigure struct {
	App   string
	Nodes int
	Route string
	// CrashNode / CrashAtMs / RecoverAtMs describe the scheduled node
	// outage (CrashNode -1 = no node fault scheduled).
	CrashNode              int
	CrashAtMs, RecoverAtMs int
	BucketMs               int
	Arms                   []ClusterArm
}

// clusterLoadFrac sizes the front-end offered load at 70% of the
// fleet's aggregate high-load capacity: enough headroom that survivors
// can absorb a one-node outage, tight enough that the outage is visible
// in the P99 timeline.
const clusterLoadFrac = 0.7

// clusterCapFrac sets the fleet power budget of the capped arm as a
// fraction of the fleet's aggregate TDP.
const clusterCapFrac = 0.45

// FigClusterCtx runs memcached across a cluster of NMAP nodes behind
// the routing front end, kills node 1 mid-run (unless the harness
// faults already schedule node faults), and plots the per-bucket
// cluster P99 / resteer / offline-node timeline for two arms: per-node
// NMAP governors, and per-node ondemand under a fleet power cap.
//
// The arms run on the bounded worker pool (each owns its engine and
// seeded streams, results collected by index), so the rendered figure
// is byte-identical at any parallelism, like RunSpecs. With hedge set,
// both arms run with tail-latency request hedging armed.
//
// Cancelling ctx checkpoints what is in hand: every finished arm is
// kept, each in-flight arm is collected as of the abort instant with
// all its per-node results in input order (Done=false), never-started
// arms are absent, and ctx.Err() is returned alongside the partial
// figure.
func (h *Harness) FigClusterCtx(ctx context.Context, q Quality, nodes int, route string, hedge bool) (ClusterFigure, error) {
	if nodes < 1 {
		return ClusterFigure{}, fmt.Errorf("experiments: fig-cluster needs at least 1 node, got %d", nodes)
	}
	prof := workload.Memcached()
	warm, dur := q.warmup(), q.duration()
	bucket := dur / 20

	ncfg := h.spec(Spec{Cfg: server.Config{
		Seed:     defaultSeed,
		Profile:  prof,
		RPS:      prof.HighRPS * float64(nodes) * clusterLoadFrac,
		Warmup:   warm,
		Duration: dur,
	}}).Cfg
	f := &ncfg.Faults
	if nodes > 1 && len(f.NodeCrashes) == 0 && len(f.NodeSlows) == 0 {
		// Default scenario: node 1 dies roughly a quarter into the
		// measured window and reboots a quarter later. The instant is
		// aligned a tenth of a period into a burst window so the victim
		// dies with requests in flight — otherwise the crash would land
		// in an inter-burst gap and the resteer path would never fire.
		p := prof.Burst.Period
		at := ((warm+dur/4)/p+1)*p + p/10
		f.NodeCrashes = []faults.NodeCrash{{Node: 1, At: at, Duration: dur / 4}}
	}
	fig := ClusterFigure{
		App:       prof.Name,
		Nodes:     nodes,
		Route:     route,
		CrashNode: -1,
		BucketMs:  int(bucket / sim.Millisecond),
	}
	if len(f.NodeCrashes) > 0 {
		nc := f.NodeCrashes[0]
		fig.CrashNode = nc.Node
		fig.CrashAtMs = int(nc.At / sim.Millisecond)
		fig.RecoverAtMs = int((nc.At + nc.Duration) / sim.Millisecond)
	}

	fleetCapW := clusterCapFrac * float64(nodes) * cpu.XeonGold6134.MaxPowerW()
	arms := []struct {
		name   string
		policy string
		capW   float64
	}{
		{"nmap-per-node", "nmap", 0},
		{"ondemand+fleet-cap", "ondemand", fleetCapW},
	}
	// The arms fan out over the worker pool; results land by index so the
	// figure's arm order is the input order at any parallelism. An arm
	// skipped because ctx was already cancelled when its worker picked it
	// up is absent from the figure (nothing ran, nothing is fabricated).
	outs := make([]ClusterArm, len(arms))
	errs := make([]error, len(arms))
	started := make([]bool, len(arms))
	h.forEach(len(arms), func(i int) {
		if ctx != nil && ctx.Err() != nil {
			errs[i] = ctx.Err()
			return
		}
		started[i] = true
		a := arms[i]
		ccfg := cluster.Config{
			Nodes:          nodes,
			Route:          route,
			RouteRetries:   2,
			Node:           ncfg,
			FleetPowerCapW: a.capW,
		}
		if hedge {
			ccfg.Hedge = cluster.HedgeConfig{Enabled: true}
		}
		outs[i], errs[i] = h.runClusterArm(ctx, ccfg, a.policy, a.name, warm+dur, bucket)
	})
	for i := range arms {
		if started[i] {
			fig.Arms = append(fig.Arms, outs[i])
		}
	}
	if ctx != nil && ctx.Err() != nil {
		return fig, ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return fig, err
		}
	}
	return fig, nil
}

// runClusterArm executes one arm, bucketing front-end completions by
// completion time and sampling the resteer/offline counters on a
// ticker. The arm's Result is valid even when the run was cut short.
func (h *Harness) runClusterArm(ctx context.Context, ccfg cluster.Config, policy, name string,
	total, bucket sim.Duration) (ClusterArm, error) {
	arm := ClusterArm{Name: name, CapW: ccfg.FleetPowerCapW}
	cl, err := cluster.New(ccfg, func(_ int, ncfg server.Config, eng *sim.Engine) (*server.Server, error) {
		return BuildOn(Spec{Policy: policy, Idle: "menu", Cfg: ncfg}, eng)
	})
	if err != nil {
		return arm, err
	}
	n := int(total / bucket)
	lats := make([][]sim.Duration, n)
	cl.OnDone = func(r *workload.Request) {
		if b := int(sim.Duration(r.Done) / bucket); b >= 0 && b < n {
			lats[b] = append(lats[b], r.Latency())
		}
	}
	// The ticker fires at the END of each bucket: sample the cumulative
	// resteer count and the offline-node population there.
	resteerAt := make([]uint64, n)
	offAt := make([]int, n)
	bi := 0
	stop := cl.Eng.Ticker(bucket, func() {
		if bi < n {
			resteerAt[bi] = cl.Accounting().Resteers
			offAt[bi] = cl.OfflineNodes()
			bi++
		}
	})
	res, err := cl.Run(ctx)
	stop()
	h.recordAudit(res.Audit)
	arm.Result = res
	var prev uint64
	for i := 0; i < n; i++ {
		cum := resteerAt[i]
		if i >= bi { // run ended before this tick; carry the final ledger
			cum = res.Front.Resteers
		}
		arm.Buckets = append(arm.Buckets, ClusterBucket{
			FromMs:   int(sim.Duration(i) * bucket / sim.Millisecond),
			Done:     len(lats[i]),
			P99:      p99Of(lats[i]),
			Resteers: cum - prev,
			Offline:  offAt[i],
		})
		prev = cum
	}
	if err != nil {
		return arm, err
	}
	arm.Done = true
	return arm, nil
}

// RenderCluster formats the fleet timeline: one table per arm plus a
// fleet summary footer.
func RenderCluster(fig ClusterFigure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig cluster: %d nodes, route=%s (%s)", fig.Nodes, fig.Route, fig.App)
	if fig.CrashNode >= 0 {
		fmt.Fprintf(&b, ", node %d down %d-%dms", fig.CrashNode, fig.CrashAtMs, fig.RecoverAtMs)
	}
	b.WriteString(" ==\n")
	for _, arm := range fig.Arms {
		renderClusterArm(&b, arm)
	}
	return b.String()
}

// renderClusterArm appends one arm's timeline table and summary footer
// (shared by RenderCluster and RenderGrayFail, so the two figures keep
// byte-identical arm bodies).
func renderClusterArm(b *strings.Builder, arm ClusterArm) {
	title := fmt.Sprintf("\n-- %s --", arm.Name)
	if !arm.Done {
		title += " (partial)"
	}
	t := report.NewTable(title, "t(ms)", "done", "p99(ms)", "resteers", "offline-nodes")
	for _, bk := range arm.Buckets {
		t.Row(fmt.Sprint(bk.FromMs),
			fmt.Sprint(bk.Done),
			fmt.Sprintf("%.3f", bk.P99.Millis()),
			fmt.Sprint(bk.Resteers),
			fmt.Sprint(bk.Offline))
	}
	b.WriteString(t.String())
	r := arm.Result
	fmt.Fprintf(b, "fleet: p99=%.3fms (SLO %.0fms, violated=%v) energy=%.1fJ power=%.1fW cap-steps=%d\n",
		r.Summary.P99.Millis(), r.SLO.Millis(), r.Violated, r.EnergyJ, r.AvgPowerW, r.CapInterventions)
	fmt.Fprintf(b, "front: issued=%d done=%d failed=%d unroutable=%d resteers=%d markdowns=%d markups=%d\n",
		r.Front.Issued, r.Front.Completed, r.Front.Failed, r.Front.Unroutable,
		r.Front.Resteers, r.MarkDowns, r.MarkUps)
	if r.Front.Hedges > 0 || r.Front.HedgeDupDone > 0 || r.Front.HedgeDupFail > 0 {
		fmt.Fprintf(b, "hedge: dispatched=%d dup-done=%d dup-fail=%d\n",
			r.Front.Hedges, r.Front.HedgeDupDone, r.Front.HedgeDupFail)
	}
	if r.Fabric != (cluster.FabricStats{}) {
		fmt.Fprintf(b, "fabric: req-lost=%d resp-lost=%d req-transit=%d resp-transit=%d\n",
			r.Fabric.ReqLost, r.Fabric.RespLost, r.Fabric.ReqInTransit, r.Fabric.RespInTransit)
	}
	if r.Faults.Partitions+r.Faults.LinkSlows+r.Faults.LinkLosses > 0 {
		fmt.Fprintf(b, "link-faults: partitions=%d (healed %d) slows=%d lossy-windows=%d\n",
			r.Faults.Partitions, r.Faults.PartitionHeals, r.Faults.LinkSlows, r.Faults.LinkLosses)
	}
	for i, nr := range r.Nodes {
		fmt.Fprintf(b, "  node %d: done=%d p99=%.3fms energy=%.1fJ\n",
			i, nr.Reqs.Completed, nr.Summary.P99.Millis(), nr.EnergyJ)
	}
}
