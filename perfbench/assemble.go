package main

import (
	"fmt"

	"nmapsim/internal/core"
	"nmapsim/internal/experiments"
	"nmapsim/internal/governor"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// profileSeed is the threshold-profiling seed experiments.BuildOn derives
// from a server's seed for the nmap policy.
func profileSeed(seed uint64) uint64 { return 1000 + seed%4 }

// thresholds runs the §4.2 offline NMAP profiling with a cold cache, the
// cost every nmapsim invocation pays. It repeats the body of
// experiments.ProfiledThresholds, whose process-wide cache would turn
// every pass after the first warm; checkThresholds proves the two agree.
// The memo, keyed like the harness's cache by profile name and
// profiling seed, lives for one pass, so each pass profiles afresh.
type thresholds map[string]profiled

type profiled struct {
	profile *workload.Profile
	seed    uint64
	th      core.Thresholds
}

func (m thresholds) get(p *workload.Profile, seed uint64) core.Thresholds {
	seed = profileSeed(seed)
	key := fmt.Sprintf("%s/%d", p.Name, seed)
	if e, ok := m[key]; ok {
		return e.th
	}
	idle, _ := governor.NewIdlePolicy("menu")
	s := server.New(server.Config{
		Seed:     seed,
		Profile:  p,
		Level:    workload.High,
		Warmup:   0,
		Duration: 400 * sim.Millisecond,
	}, idle)
	s.AttachPolicy(governor.NewStack(s.Eng, s.Proc, governor.Ondemand{Model: s.Cfg.Model}, 0))
	prof := core.NewProfiler(s.Eng)
	s.AddListener(prof)
	s.Run()
	m[key] = profiled{p, seed, prof.Thresholds()}
	return m[key].th
}

// checkThresholds compares every profiled threshold pair with the
// harness's own experiments.ProfiledThresholds.
func checkThresholds(m thresholds) error {
	for key, e := range m {
		if want := experiments.ProfiledThresholds(e.profile, e.seed); e.th != want {
			return fmt.Errorf("thresholds for %s: benchmark profiled %+v, harness %+v", key, e.th, want)
		}
	}
	return nil
}

// assemble builds spec's server on eng the way experiments.BuildOn does
// for the policies the workloads run, with the idle policy, the cpufreq
// governor and the NMAP listener wrapped in the tracer's aggregates. The
// traced digest matching the untraced one, which goes through BuildOn,
// proves this assembly and the wrappers change no physics.
func assemble(spec experiments.Spec, th core.Thresholds, eng *sim.Engine, tr *tracer) (*server.Server, error) {
	if err := spec.Cfg.Validate(); err != nil {
		return nil, err
	}
	idle, ok := governor.NewIdlePolicy(spec.Idle)
	if !ok {
		return nil, fmt.Errorf("unknown idle policy %q", spec.Idle)
	}
	s := server.NewOnEngine(spec.Cfg, timedIdle{idle, &tr.Idle}, eng)
	m := s.Cfg.Model
	stack := func(g governor.CPUGovernor) *governor.Stack {
		return governor.NewStack(s.Eng, s.Proc, timedGovernor{g, &tr.Governor}, 10*sim.Millisecond)
	}
	switch spec.Policy {
	case "performance":
		s.AttachPolicy(stack(governor.Performance{}))
	case "ondemand":
		s.AttachPolicy(stack(governor.Ondemand{Model: m}))
	case "intel_powersave":
		s.AttachPolicy(stack(&governor.IntelPowersave{Model: m}))
	case "nmap-simpl":
		n := core.NewNMAPSimpl(s.Eng, s.Proc, stack(governor.Ondemand{Model: m}))
		s.AddListener(timedListener{n, &tr.Listener})
		s.AttachPolicy(n)
	case "nmap":
		n := core.NewNMAP(s.Eng, s.Proc, stack(governor.Ondemand{Model: m}), th, 10*sim.Millisecond)
		s.AddListener(timedListener{n, &tr.Listener})
		s.AttachPolicy(n)
	default:
		return nil, fmt.Errorf("policy %q has no traced assembly", spec.Policy)
	}
	return s, nil
}
