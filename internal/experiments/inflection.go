package experiments

import (
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// InflectionPoint is the outcome of a latency-load sweep: the knee of
// the curve, which the paper's methodology uses to set each
// application's SLO ("we set the SLO for the applications to the
// inflection point of the latency-load curve as prior studies do").
type InflectionPoint struct {
	// RPS is the offered load at the knee.
	RPS float64
	// P99 is the tail latency at the knee — the SLO candidate.
	P99 sim.Duration
	// Curve holds every (rps, p99) sample of the sweep.
	Curve []SweepPoint
}

// SweepPoint is one sample of a latency-load curve.
type SweepPoint struct {
	RPS float64
	P99 sim.Duration
}

// FindInflection sweeps the offered load from lo to hi in steps and
// locates the knee: the first load whose P99 exceeds kneeFactor× the
// low-load baseline. The sweep runs under the performance governor (the
// best-case configuration, as in the paper's SLO-setting procedure).
// kneeFactor <= 1 defaults to 5.
func (h *Harness) FindInflection(profile *workload.Profile, lo, hi float64, steps int, kneeFactor float64, q Quality) (InflectionPoint, error) {
	if steps < 2 {
		steps = 2
	}
	if kneeFactor <= 1 {
		kneeFactor = 5
	}
	var out InflectionPoint
	var baseline sim.Duration
	for i := 0; i < steps; i++ {
		rps := lo + (hi-lo)*float64(i)/float64(steps-1)
		res, err := h.Run(Spec{
			Policy: "performance",
			Idle:   "menu",
			Cfg: server.Config{
				Seed:     defaultSeed,
				Profile:  profile,
				RPS:      rps,
				Warmup:   q.warmup(),
				Duration: q.duration(),
			},
		})
		if err != nil {
			return out, err
		}
		pt := SweepPoint{RPS: rps, P99: res.Summary.P99}
		out.Curve = append(out.Curve, pt)
		if i == 0 {
			baseline = pt.P99
			continue
		}
		if out.RPS == 0 && float64(pt.P99) > kneeFactor*float64(baseline) {
			out.RPS = pt.RPS
			out.P99 = pt.P99
		}
	}
	if out.RPS == 0 {
		// No knee inside the range: report the last point.
		last := out.Curve[len(out.Curve)-1]
		out.RPS = last.RPS
		out.P99 = last.P99
	}
	return out, nil
}
