package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"nmapsim/internal/audit"
	"nmapsim/internal/faults"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// Harness is the configuration every cell-running entry point runs
// under: how many cells fan out at once, how each cell is guarded,
// retried, journaled and budgeted, and the fault, retry, audit and
// streaming defaults folded into every spec that does not set its own.
// The zero value is the default harness: one worker per CPU, no cell
// timeout, fail-fast cells, no memory budget, no journal, no faults or
// client retries, no auditor and exact histograms.
//
// A Harness must not be mutated while a sweep runs on it. Its methods
// are safe for concurrent use, and the audit tally it owns is merged
// under a lock.
type Harness struct {
	// Parallel bounds the worker pool to that many cells in flight at
	// once; <= 0 means one worker per CPU.
	Parallel int
	// CellTimeout bounds the wall-clock time of each cell: a cell that
	// exceeds it is aborted through its engine and surfaces as that
	// cell's error instead of hanging the sweep. <= 0 means no bound.
	CellTimeout time.Duration
	// CellRetry is the per-cell retry and quarantine policy of the
	// RunSpecs sweeps; the zero policy fails a sweep on its first cell
	// error.
	CellRetry HarnessRetry
	// CellFault, when set, is consulted at the start of every sweep-cell
	// attempt: a non-nil return fails that attempt before the cell runs.
	// It is the injection point the chaos harness (package harnesschaos)
	// uses to simulate flaky and poison cells deterministically.
	CellFault func(spec Spec, attempt int) error
	// MemoryBudget is a soft memory watermark in bytes for the RunSpecs
	// sweeps: a fresh cell whose projected exact-histogram footprint
	// times the worker-pool size would cross it records into the bounded
	// streaming histogram instead, explicitly marked. The decision
	// depends only on the spec and the pool size, never on allocator
	// state, so a resumed sweep makes the same one. <= 0 means no
	// watermark.
	MemoryBudget int64
	// Journal, when set, is the checkpoint journal of the RunSpecs
	// sweeps: journaled cells are served without re-running and every
	// cell that completes cleanly is journaled.
	Journal *Journal
	// Faults and Retry are the fault-injection and client-retry configs
	// applied to every spec that carries none (the CLIs' -faults and
	// -rto flags).
	Faults faults.Config
	Retry  workload.RetryConfig
	// Audit runs every cell under the invariant auditor; the reports are
	// merged into the tally AuditReport returns.
	Audit bool
	// Stream records latencies into the bounded streaming-quantile
	// histogram (a fixed ~64KB per cell, see stats.StreamRelError)
	// instead of the exact sample recorder.
	Stream bool

	tallyMu sync.Mutex
	tally   *audit.Report
}

// Parallelism returns the worker-pool size of the zero Harness: one
// worker per CPU.
func Parallelism() int { return runtime.GOMAXPROCS(0) }

// workers returns the effective worker-pool size.
func (h *Harness) workers() int {
	if h.Parallel > 0 {
		return h.Parallel
	}
	return Parallelism()
}

// spec folds the harness defaults into a spec: the fault and retry
// configs apply when the spec enables none of its own, and the audit
// and streaming switches turn on what the spec leaves off.
func (h *Harness) spec(s Spec) Spec {
	if !s.Cfg.Faults.Enabled() {
		s.Cfg.Faults = h.Faults
	}
	if !s.Cfg.Retry.Enabled() {
		s.Cfg.Retry = h.Retry
	}
	s.Cfg.Audit = s.Cfg.Audit || h.Audit
	s.Cfg.StreamingHist = s.Cfg.StreamingHist || h.Stream
	return s
}

// run runs a built server under the harness guard and merges its audit
// report into the tally. The guard is a simulated-millisecond ticker on
// the cell's own goroutine that aborts the run with a diagnostic once
// ctx is cancelled or the cell's wall-clock budget is spent. It draws no
// randomness and touches no model state, so a guarded run and an
// unguarded one produce byte-identical physics.
func (h *Harness) run(ctx context.Context, s *server.Server) (server.Result, error) {
	budget := h.CellTimeout
	if (ctx != nil && ctx.Done() != nil) || budget > 0 {
		start := time.Now()
		s.Eng.Ticker(sim.Millisecond, func() {
			if ctx != nil && ctx.Err() != nil {
				s.Eng.Abort(fmt.Errorf("experiments: run canceled at %v: %w", s.Eng.Now(), ctx.Err()))
				return
			}
			if budget > 0 && time.Since(start) > budget {
				s.Eng.Abort(fmt.Errorf("experiments: run exceeded the %v wall-clock budget at %v", budget, s.Eng.Now()))
			}
		})
	}
	res, err := s.Run()
	h.recordAudit(res.Audit)
	return res, err
}

// recordAudit merges one run's audit report into the tally.
func (h *Harness) recordAudit(rep *audit.Report) {
	if rep == nil {
		return
	}
	h.tallyMu.Lock()
	if h.tally == nil {
		h.tally = &audit.Report{}
	}
	h.tally.Merge(rep)
	h.tallyMu.Unlock()
}

// AuditReport returns a snapshot of the merged audit tally across every
// audited run of this harness so far, or nil when none has finished.
func (h *Harness) AuditReport() *audit.Report {
	h.tallyMu.Lock()
	defer h.tallyMu.Unlock()
	return h.tally.Clone()
}

// Run builds and runs one spec. A watchdog or harness abort mid-run —
// or, with auditing on, an invariant violation — surfaces as an error
// alongside the partial result collected so far.
func (h *Harness) Run(spec Spec) (server.Result, error) {
	s, err := Build(h.spec(spec))
	if err != nil {
		return server.Result{}, err
	}
	return h.run(context.Background(), s)
}
