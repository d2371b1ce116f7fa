package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nmapsim/internal/server"
)

// The harness fans independent simulation cells out over a bounded worker
// pool. Every cell owns its engine and seeded PRNG, and results are
// collected by index, so the output is byte-for-byte identical to a
// serial run regardless of the worker count (see docs/MODEL.md,
// "Performance & determinism").

// forEach runs fn(0) … fn(n-1) on the worker pool and returns when all
// calls have finished. Callers write results into index i of a pre-sized
// slice, which preserves the deterministic serial order. A panic in any
// fn is re-raised on the calling goroutine once the pool has drained,
// matching the serial loop, where it would propagate directly.
func (h *Harness) forEach(n int, fn func(i int)) {
	workers := h.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// runCellOnce runs one attempt of a cell. permanent reports an error
// retrying cannot fix: an assembly/validation failure is deterministic,
// so re-running the identical spec would only burn the retry budget.
func (h *Harness) runCellOnce(ctx context.Context, spec Spec, attempt int) (res server.Result, err error, permanent bool) {
	if h.CellFault != nil {
		if ferr := h.CellFault(spec, attempt); ferr != nil {
			return server.Result{}, fmt.Errorf("experiments: injected harness fault on attempt %d: %w", attempt, ferr), false
		}
	}
	s, err := Build(spec)
	if err != nil {
		return server.Result{}, err, true
	}
	res, err = h.run(ctx, s)
	return res, err, false
}

// runCellAttempts drives one cell through the harness CellRetry
// policy: failed attempts are re-run with exponential backoff until the
// attempt budget, the per-cell deadline, or the sweep context gives
// out. It returns the last attempt's (possibly partial) result and how
// many attempts ran. With the zero policy this is exactly one attempt —
// the seed behaviour.
func (h *Harness) runCellAttempts(ctx context.Context, spec Spec) (server.Result, int, error) {
	pol := h.CellRetry
	start := time.Now()
	for attempt := 1; ; attempt++ {
		res, err, permanent := h.runCellOnce(ctx, spec, attempt)
		if err == nil || permanent {
			return res, attempt, err
		}
		if ctx != nil && ctx.Err() != nil {
			return res, attempt, err
		}
		if attempt > pol.MaxRetries {
			if pol.MaxRetries > 0 {
				err = fmt.Errorf("experiments: cell failed after %d attempt(s): %w", attempt, err)
			}
			return res, attempt, err
		}
		delay := pol.Delay(attempt)
		if pol.Deadline > 0 && time.Since(start)+delay > pol.Deadline {
			return res, attempt, fmt.Errorf("experiments: cell deadline %v exhausted after %d attempt(s): %w",
				pol.Deadline, attempt, err)
		}
		if delay > 0 {
			if ctx != nil && ctx.Done() != nil {
				t := time.NewTimer(delay)
				select {
				case <-ctx.Done():
					t.Stop()
					return res, attempt, err
				case <-t.C:
				}
			} else {
				time.Sleep(delay)
			}
		}
	}
}

// CellResult is one cell of a checkpointed sweep.
type CellResult struct {
	// Result is the cell's outcome — partial if Err is non-nil, zero if
	// the cell never started (Done false).
	Result server.Result
	// Err is why the cell failed (assembly error, watchdog, timeout, or
	// cancellation); nil for a clean run.
	Err error
	// Done reports whether the cell ran to completion.
	Done bool
	// Attempts counts how many times the cell ran under the CellRetry
	// policy (1 for a first-try success, 0 for a journal-served cell).
	Attempts int
	// Quarantined marks a cell that exhausted its retry budget under a
	// Quarantine policy: the sweep carried on without it, and Err holds
	// why it kept failing. Quarantined cells are reported, never
	// silently skipped, and never journaled — a resume retries them.
	Quarantined bool
	// Downgraded marks a cell the memory watermark switched from the
	// exact sample recorder to the bounded streaming histogram before it
	// ran (see Harness.MemoryBudget); Result.Hist carries the streaming
	// marker through the journal.
	Downgraded bool
}

// RunSpecsCtx runs every spec on the worker pool with checkpointing and
// self-healing: every cell's outcome is recorded in input order even
// when some fail, so a failed or canceled sweep keeps the cells that
// did finish. Failed cells are retried under the CellRetry policy, and
// with Quarantine set an exhausted cell is quarantined (reported in its
// CellResult) instead of sinking the sweep. Once ctx is canceled no new
// cell starts (in-flight cells abort at their next simulated
// millisecond). The returned error is the first non-quarantined cell
// error in input order, ctx.Err() if the sweep was cut short, or the
// journal's write error (wrapping ErrJournalWrite) if results computed
// fine but stopped persisting — the partial results are returned either
// way.
func (h *Harness) RunSpecsCtx(ctx context.Context, specs []Spec) ([]CellResult, error) {
	cells := make([]CellResult, len(specs))
	j := h.Journal
	h.forEach(len(specs), func(i int) {
		if ctx != nil && ctx.Err() != nil {
			cells[i].Err = ctx.Err()
			return
		}
		// With a checkpoint journal, completed cells are served from the
		// journal (each cell is a deterministic seeded run, so the
		// journaled result is byte-identical to recomputing it) and fresh
		// completions are journaled for the next resume. The key is
		// always the *requested* spec: a budget-downgraded cell journals
		// under the hash of what was asked for, and its stored histogram
		// self-describes the downgrade.
		var hash string
		if j != nil {
			hash = h.SpecHash(specs[i])
			if res, ok := j.Lookup(hash); ok {
				h.recordAudit(res.Audit)
				cells[i] = CellResult{Result: res, Done: true}
				return
			}
		}
		spec := h.spec(specs[i])
		downgraded := h.downgrade(&spec)
		res, attempts, err := h.runCellAttempts(ctx, spec)
		cells[i] = CellResult{
			Result: res, Err: err, Done: err == nil,
			Attempts: attempts, Downgraded: downgraded,
		}
		if err != nil {
			if h.CellRetry.Quarantine && (ctx == nil || ctx.Err() == nil) {
				cells[i].Quarantined = true
			}
			return
		}
		if j != nil {
			// A failed checkpoint write is not a cell failure: the result
			// in hand is valid and returned. The journal turns read-only
			// on its first write error and the sweep surfaces it once at
			// the end, so the run checkpoints what it can and exits
			// cleanly instead of failing every remaining cell.
			j.Record(hash, res)
		}
	})
	if ctx != nil && ctx.Err() != nil {
		return cells, ctx.Err()
	}
	for _, c := range cells {
		if c.Err != nil && !c.Quarantined {
			return cells, c.Err
		}
	}
	if j != nil {
		if werr := j.WriteErr(); werr != nil {
			return cells, werr
		}
	}
	return cells, nil
}

// RunSpecsCtx is RunSpecsCtx on the zero Harness.
func RunSpecsCtx(ctx context.Context, specs []Spec) ([]CellResult, error) {
	return new(Harness).RunSpecsCtx(ctx, specs)
}

// RunSpecs runs every spec on the worker pool and returns the results
// in input order. On error the completed cells are still returned
// (failed or never-started cells hold the zero Result) alongside the
// first error in input order.
func (h *Harness) RunSpecs(specs []Spec) ([]server.Result, error) {
	cells, err := h.RunSpecsCtx(context.Background(), specs)
	results := make([]server.Result, len(cells))
	for i, c := range cells {
		results[i] = c.Result
	}
	return results, err
}
