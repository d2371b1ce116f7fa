package experiments

import (
	"context"

	"fmt"
	"sort"
	"strings"

	"nmapsim/internal/faults"
	"nmapsim/internal/report"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// ---------------------------------------------------------------------
// Fig resilience: P99 and shed rate through a core crash and recovery.
// ---------------------------------------------------------------------

// ResilienceBucket is one time slice of the crash/recovery timeline.
type ResilienceBucket struct {
	// FromMs is the bucket's start, in ms since the run began.
	FromMs int
	// Done is the number of requests completed in the bucket.
	Done int
	// P99 is the P99 response time of those completions (0 if none).
	P99 sim.Duration
	// Shed is the number of requests the admission controller refused
	// during the bucket.
	Shed uint64
	// Offline is the number of offline cores at the bucket's end.
	Offline int
}

// ResilienceRun is one pass through the crash scenario (shedding on or
// off), bucketed over the whole run including warmup so the crash is
// visible wherever it lands.
type ResilienceRun struct {
	Name string
	// ShedSLOMultiple is the admission-control knob (0 = shedding off).
	ShedSLOMultiple float64
	Buckets         []ResilienceBucket
	// CrashP99 is the P99 over completions inside the outage window
	// [crash, recovery) — the survivors' latency while one core is dead.
	CrashP99 sim.Duration
	// CrashShed counts requests shed inside the outage window.
	CrashShed uint64
	Result    server.Result
}

// ResilienceFigure is the Fig-resilience result: the same mid-run core
// crash with and without SLO-aware load shedding.
type ResilienceFigure struct {
	App       string
	Policy    string
	CrashCore int
	// CrashAtMs / RecoverAtMs delimit the outage, in ms since run start.
	CrashAtMs, RecoverAtMs int
	BucketMs               int
	Runs                   []ResilienceRun
}

// resilienceShedMultiple is the admission-control setting for the
// shedding arm: refuse a fresh request when the estimated queueing
// delay at its RSS steering target exceeds 4x the SLO.
const resilienceShedMultiple = 4

// FigResilience runs memcached at high load under NMAP, kills core 1
// mid-run, recovers it after a quarter of the measurement window, and
// plots P99 plus shed rate through the timeline — once with the
// admission controller off and once shedding at 4x the SLO.
func (h *Harness) FigResilience(q Quality) (ResilienceFigure, error) {
	prof := workload.Memcached()
	warm, dur := q.warmup(), q.duration()
	crash := faults.CoreCrash{
		Core:     1,
		At:       warm + dur/4,
		Duration: dur / 4,
	}
	bucket := dur / 20
	fig := ResilienceFigure{
		App:         prof.Name,
		Policy:      "nmap",
		CrashCore:   crash.Core,
		CrashAtMs:   int(crash.At / sim.Millisecond),
		RecoverAtMs: int((crash.At + crash.Duration) / sim.Millisecond),
		BucketMs:    int(bucket / sim.Millisecond),
	}
	for _, shed := range []float64{0, resilienceShedMultiple} {
		run, err := h.runResilience(q, prof, crash, bucket, shed)
		if err != nil {
			return fig, err
		}
		fig.Runs = append(fig.Runs, run)
	}
	return fig, nil
}

// runResilience executes one arm of the scenario, bucketing completions
// by completion time and sampling the shed/offline counters on a ticker.
func (h *Harness) runResilience(q Quality, prof *workload.Profile, crash faults.CoreCrash,
	bucket sim.Duration, shed float64) (ResilienceRun, error) {
	spec := Spec{
		Policy: "nmap",
		Idle:   "menu",
		Cfg: server.Config{
			Seed:            defaultSeed,
			Profile:         prof,
			Level:           workload.High,
			Warmup:          q.warmup(),
			Duration:        q.duration(),
			ShedSLOMultiple: shed,
			Faults:          faults.Config{CoreCrashes: []faults.CoreCrash{crash}},
		},
	}
	name := "shed-off"
	if shed > 0 {
		name = fmt.Sprintf("shed@%gxSLO", shed)
	}
	run := ResilienceRun{Name: name, ShedSLOMultiple: shed}

	s, err := Build(h.spec(spec))
	if err != nil {
		return run, err
	}
	total := q.warmup() + q.duration()
	n := int(total / bucket)
	lats := make([][]sim.Duration, n)
	crashEnd := crash.At + crash.Duration
	var crashLats []sim.Duration
	s.OnDone = func(r *workload.Request) {
		at := sim.Duration(r.Done)
		if b := int(at / bucket); b >= 0 && b < n {
			lats[b] = append(lats[b], r.Latency())
		}
		if at >= crash.At && at < crashEnd {
			crashLats = append(crashLats, r.Latency())
		}
	}
	// The ticker fires at the END of each bucket: sample the cumulative
	// shed count and the offline-core population there.
	shedAt := make([]uint64, n)
	offAt := make([]int, n)
	bi := 0
	stop := s.Eng.Ticker(bucket, func() {
		if bi < n {
			shedAt[bi] = s.Accounting().Shed
			offAt[bi] = s.Proc.OfflineCount()
			bi++
		}
	})
	res, err := h.run(context.Background(), s)
	stop()
	if err != nil {
		return run, err
	}
	run.Result = res
	run.CrashP99 = p99Of(crashLats)
	var prevShed uint64
	for i := 0; i < n; i++ {
		from := sim.Duration(i) * bucket
		cum := shedAt[i]
		if i >= bi { // run ended before this tick; carry the final ledger
			cum = res.Reqs.Shed
		}
		b := ResilienceBucket{
			FromMs:  int(from / sim.Millisecond),
			Done:    len(lats[i]),
			P99:     p99Of(lats[i]),
			Shed:    cum - prevShed,
			Offline: offAt[i],
		}
		if from >= crash.At && from < crashEnd {
			run.CrashShed += b.Shed
		}
		prevShed = cum
		run.Buckets = append(run.Buckets, b)
	}
	return run, nil
}

// p99Of returns the 99th-percentile of the sample (0 when empty). The
// input slice is sorted in place.
func p99Of(d []sim.Duration) sim.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	idx := (len(d)*99 + 99) / 100
	if idx >= len(d) {
		idx = len(d) - 1
	}
	return d[idx]
}

// RenderResilience formats the crash/recovery timeline: one table per
// arm plus a survivors' comparison footer.
func RenderResilience(fig ResilienceFigure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig resilience: core %d crash at %dms, recovery at %dms (%s, high load, %s) ==\n",
		fig.CrashCore, fig.CrashAtMs, fig.RecoverAtMs, fig.App, fig.Policy)
	for _, run := range fig.Runs {
		t := report.NewTable(fmt.Sprintf("\n-- %s --", run.Name),
			"t(ms)", "done", "p99(ms)", "shed", "offline")
		for _, bk := range run.Buckets {
			t.Row(fmt.Sprint(bk.FromMs),
				fmt.Sprint(bk.Done),
				fmt.Sprintf("%.3f", bk.P99.Millis()),
				fmt.Sprint(bk.Shed),
				fmt.Sprint(bk.Offline))
		}
		b.WriteString(t.String())
		fmt.Fprintf(&b, "run: %v\n", run.Result)
	}
	fmt.Fprintf(&b, "\nsurvivors during the outage window:\n")
	for _, run := range fig.Runs {
		fmt.Fprintf(&b, "  %-12s p99=%.3fms shed=%d (ledger: issued=%d done=%d shed=%d)\n",
			run.Name, run.CrashP99.Millis(), run.CrashShed,
			run.Result.Reqs.Issued, run.Result.Reqs.Completed, run.Result.Reqs.Shed)
	}
	return b.String()
}
