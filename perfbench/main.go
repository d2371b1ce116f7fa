// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator in passes for a fixed wall-clock budget,
// checks every simulated cell, and prints the end-to-end metrics, or
// with --trace 1 the per-layer ledger, as one JSON object on the last
// line of standard output:
//
//	bash perfbench/run.sh --workload mc-high-nmap --seed 42 --seconds 20 --trace 0
//
// A pass runs every cell of the workload once, with the same seed, so
// every pass must produce the same physics digest. It first profiles the
// NMAP thresholds it needs with a cold cache, then assembles the servers
// (setup_s ends at the first simulated event), then runs the simulation
// (run_s). Untraced passes go through the harness entry points only;
// traced passes assemble the same cells themselves, wrap the governor,
// idle-policy and NAPI-listener boundaries, step the engine in slices and
// profile the CPU, and must reproduce the untraced digest exactly.
//
// The exit code is 0 when every check passed, 1 when one failed (the
// result line then says "correct": false), and 2 on a usage or I/O
// error, with no result line.
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minPasses is the fewest untraced passes a run makes, however short its
// budget, so setup_s and run_s are always medians of several.
const minPasses = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 42, "workload seed; node and threshold-profiling seeds derive from it")
	seconds := fs.Float64("seconds", 10, "wall-clock budget of the untraced passes (and again of the traced ones)")
	trace := fs.Int("trace", 0, "1 = also run traced passes and report the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "traces"), "directory for the spans and CPU profiles of traced passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == *name })
	if i < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	w := workloads[i]
	budget := time.Duration(*seconds * float64(time.Second))

	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d go=%s pgo=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), pgoSetting())

	plain := passes(w, *seed, budget, minPasses, nil)
	rssMB, err := maxRSSMB()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: peak RSS:", err)
		return 2
	}
	var tr *tracer
	var traced []*pass
	if *trace == 1 {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		tr = newTracer(*out, fmt.Sprintf("%s.seed%d", w.name, *seed))
		traced = passes(w, *seed, budget, 1, tr)
		if err := tr.flush(); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 2
		}
	}

	// Correctness: every cell's checks, one digest across every pass,
	// and the benchmark's threshold profiling equal to the harness's.
	all := append(slices.Clone(plain), traced...)
	attempted, failed := 0, 0
	var problems []string
	digest := hex.EncodeToString(all[0].digest.Sum(nil))
	for k, p := range all {
		kind := "untraced"
		if k >= len(plain) {
			kind = "traced"
		}
		fmt.Fprintf(stdout, "pass %d (%s): setup=%.4fs run=%.4fs issued=%d cells=%d\n", k+1, kind, p.setup.Seconds(), p.run.Seconds(), p.issued, p.cells)
		attempted += p.cells
		failed += len(p.failures)
		problems = append(problems, p.failures...)
		if d := hex.EncodeToString(p.digest.Sum(nil)); d != digest {
			problems = append(problems, fmt.Sprintf("pass %d digest %s differs from pass 1's %s", k+1, d, digest))
		}
	}
	if err := checkThresholds(all[0].th); err != nil {
		problems = append(problems, err.Error())
	}
	for _, pr := range problems {
		fmt.Fprintln(stdout, "FAIL", pr)
	}

	e2e := endToEnd(plain, rssMB)
	fmt.Fprintf(stdout, "digest: sha256=%s (%d untraced, %d traced passes)\n", digest, len(plain), len(traced))
	printMetrics(stdout, e2e)
	fmt.Fprintf(stdout, "operations: attempted=%d failed=%d (%.4f of attempted)\n", attempted, failed, float64(failed)/float64(attempted))
	metrics := e2e
	if tr != nil {
		metrics = perLayer(plain, traced, tr)
		printMetrics(stdout, metrics)
	}
	correct := len(problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// passes runs at least `least` passes of w, and more while another pass of
// the mean length so far still fits in the budget. A traced run profiles
// every pass into tr.
func passes(w workloadDef, seed uint64, budget time.Duration, least int, tr *tracer) []*pass {
	var ps []*pass
	start := time.Now()
	for len(ps) < least || time.Since(start)*time.Duration(len(ps)+1)/time.Duration(len(ps)) <= budget {
		// Each pass starts from a collected heap, so the garbage of the
		// previous one is not charged to it.
		runtime.GC()
		ps = append(ps, w.pass(seed, tr))
	}
	return ps
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func endToEnd(ps []*pass, rssMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {median(ps, func(p *pass) float64 { return p.setup.Seconds() }), "s"},
		"run_s":         {median(ps, func(p *pass) float64 { return p.run.Seconds() }), "s"},
		"sim_req_per_s": {median(ps, func(p *pass) float64 { return float64(p.issued) / p.run.Seconds() }), "1/s"},
		"max_rss_mb":    {rssMB, "MB"},
	}
}

func median(ps []*pass, f func(*pass) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// perLayerPkgs are the packages whose CPU self time per simulated
// request the traced run reports.
var perLayerPkgs = []string{"sim", "nic", "kernel", "cpu", "governor", "core", "stats", "server", "workload", "cluster", "audit", "runtime.memmove", "runtime.gc"}

// perLayer computes the per-layer metrics. Counts come from the first
// traced pass (every pass simulates the same physics); boundary and
// phase times are means per traced pass; ns_per_event and the tracing
// overhead compare against the untraced passes.
func perLayer(plain, traced []*pass, tr *tracer) map[string]metric {
	c := traced[0].counts
	n := float64(len(traced))
	issued := float64(traced[0].issued)
	perPass := func(v int64) float64 { return float64(v) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	plainRun := median(plain, func(p *pass) float64 { return p.run.Seconds() })
	tracedRun := median(traced, func(p *pass) float64 { return p.run.Seconds() })
	// Σ per-cell wall ÷ (workers × wall of the simulated part).
	var runWall float64
	for _, p := range traced {
		runWall += p.run.Seconds() * float64(p.workers)
	}
	cellWall := tr.spanTotal("cell").Seconds()
	m := map[string]metric{
		"sim.events_per_req":       {ratio(float64(c.fired), issued), "events/req"},
		"sim.ns_per_event":         {ratio(plainRun*1e9, float64(c.fired)), "ns"},
		"sim.pending_max":          {float64(tr.PendingMax), "count"},
		"kernel.sockq_max":         {float64(c.sockQMax), "count"},
		"kernel.poll_pkt_frac":     {ratio(float64(c.pktPoll), float64(c.pktPoll+c.pktIntr)), "frac"},
		"kernel.irqs_per_req":      {ratio(float64(c.irqs), issued), "1/req"},
		"kernel.ksoftirqd_wakes":   {float64(c.ksoftirqdWakes), "count"},
		"nic.rx_drops":             {float64(c.rxDrops), "count"},
		"cpu.cc6_per_req":          {ratio(float64(c.cc6), issued), "1/req"},
		"cpu.transitions":          {float64(c.transitions), "count"},
		"cpu.busy_frac":            {ratio(c.busySum, float64(c.cores)), "frac"},
		"idle.select_calls":        {perPass(tr.Idle.Calls), "count"},
		"idle.select_ns":           {perPass(tr.Idle.Ns), "ns"},
		"governor.decide_calls":    {perPass(tr.Governor.Calls), "count"},
		"governor.decide_ns":       {perPass(tr.Governor.Ns), "ns"},
		"nmap.listener_calls":      {perPass(tr.Listener.Calls), "count"},
		"nmap.listener_ns":         {perPass(tr.Listener.Ns), "ns"},
		"stats.collect_ms":         {perPass(int64(tr.spanTotal("collect"))) / 1e6, "ms"},
		"server.build_ms":          {perPass(int64(tr.spanTotal("build"))) / 1e6, "ms"},
		"server.alloc_b_per_req":   {ratio(float64(c.allocBytes), issued), "B/req"},
		"experiments.profile_s":    {perPass(int64(tr.spanTotal("profile"))) / 1e9, "s"},
		"experiments.parallel_eff": {ratio(cellWall, runWall), "frac"},
		"cluster.hedges_per_req":   {ratio(float64(c.hedges), issued), "1/req"},
		"cluster.resteers":         {float64(c.resteers), "count"},
		"cluster.markdowns":        {float64(c.markdowns), "count"},
		"cluster.fabric_lost":      {float64(c.fabricLost), "count"},
		"faults.injected":          {float64(c.faults), "count"},
		"audit.violations":         {float64(c.audit), "count"},
		"audit.overhead_frac":      {ratio(float64(tr.ledger["audit"]), float64(tr.ledger["total"])), "frac"},
		"trace.overhead_frac":      {tracedRun/plainRun - 1, "frac"},
	}
	for _, pkg := range perLayerPkgs {
		m[pkg+".self_ns_per_req"] = metric{ratio(float64(tr.ledger[pkg]), issued*n), "ns/req"}
	}
	return m
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// maxRSSMB is the peak resident set of this process so far, read from
// VmHWM in /proc/self/status. getrusage's ru_maxrss would not do: Linux
// carries it across exec, so it reports at least the peak of whatever
// process forked the benchmark.
func maxRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// pgoSetting reports the -pgo build setting of this binary.
func pgoSetting() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" {
				return s.Value
			}
		}
	}
	return "off"
}
