package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nmapsim/internal/server"
	"nmapsim/internal/sim"
)

// The harness fans independent simulation cells out over a bounded worker
// pool. Every cell owns its engine and seeded PRNG, and results are
// collected by index, so the output is byte-for-byte identical to a
// serial run regardless of the worker count (see docs/MODEL.md,
// "Performance & determinism").

var (
	parMu sync.RWMutex
	// par is the configured fan-out; 0 means "one worker per CPU"
	// (runtime.GOMAXPROCS(0)), resolved at use time.
	par int
)

// SetParallelism bounds the harness worker pool to n simulation cells in
// flight at once. n <= 0 restores the default, one worker per CPU. Safe
// to call concurrently with running sweeps; in-flight sweeps keep the
// fan-out they started with.
func SetParallelism(n int) {
	parMu.Lock()
	if n < 0 {
		n = 0
	}
	par = n
	parMu.Unlock()
}

// Parallelism returns the effective worker-pool size.
func Parallelism() int {
	parMu.RLock()
	n := par
	parMu.RUnlock()
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// forEach runs fn(0) … fn(n-1) on the worker pool and returns when all
// calls have finished. Callers write results into index i of a pre-sized
// slice, which preserves the deterministic serial order. A panic in any
// fn is re-raised on the calling goroutine once the pool has drained,
// matching the serial loop, where it would propagate directly.
func forEach(n int, fn func(i int)) {
	workers := Parallelism()
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

var runTimeout atomic.Int64 // per-cell wall-clock budget in ns; 0 = none

// SetRunTimeout bounds the wall-clock time of each simulation cell: a
// cell exceeding d is aborted through the engine and surfaces as that
// cell's error instead of hanging the sweep. d <= 0 removes the bound.
func SetRunTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	runTimeout.Store(int64(d))
}

// RunTimeout returns the per-cell wall-clock budget (0 = none).
func RunTimeout() time.Duration { return time.Duration(runTimeout.Load()) }

// runCell builds and runs one spec under the harness guard rails: the
// context and the per-cell wall-clock budget are checked from inside
// the engine (a simulated-millisecond ticker on the cell's own
// goroutine, so there is no cross-goroutine engine access), and either
// aborts the run with a diagnostic. The ticker draws no randomness and
// touches no model state, so an unguarded cell and a guarded one
// produce byte-identical physics.
func runCell(ctx context.Context, spec Spec) (server.Result, error) {
	res, err, _ := runCellOnce(ctx, spec, 1)
	return res, err
}

// runCellOnce runs one attempt of a cell. permanent reports an error
// retrying cannot fix: an assembly/validation failure is deterministic,
// so re-running the identical spec would only burn the retry budget.
func runCellOnce(ctx context.Context, spec Spec, attempt int) (res server.Result, err error, permanent bool) {
	if f := CellFault(); f != nil {
		if ferr := f(spec, attempt); ferr != nil {
			return server.Result{}, fmt.Errorf("experiments: injected harness fault on attempt %d: %w", attempt, ferr), false
		}
	}
	s, err := Build(spec)
	if err != nil {
		return server.Result{}, err, true
	}
	guardCell(ctx, s)
	res, err = s.Run()
	recordAudit(res.Audit)
	return res, err, false
}

// runCellAttempts drives one cell through the installed HarnessRetry
// policy: failed attempts are re-run with exponential backoff until the
// attempt budget, the per-cell deadline, or the sweep context gives
// out. It returns the last attempt's (possibly partial) result and how
// many attempts ran. With the zero policy this is exactly one attempt —
// the seed behaviour.
func runCellAttempts(ctx context.Context, spec Spec) (server.Result, int, error) {
	pol := CellRetry()
	start := time.Now()
	for attempt := 1; ; attempt++ {
		res, err, permanent := runCellOnce(ctx, spec, attempt)
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

// guardCell attaches the harness guard ticker to a built server (see
// runCell). Figure runners that build servers by hand — to attach
// tracers before running — call this so `-cell-timeout` and context
// cancellation cover every run, not just the RunSpecs sweeps.
func guardCell(ctx context.Context, s *server.Server) {
	budget := RunTimeout()
	cancellable := ctx != nil && ctx.Done() != nil
	if !cancellable && budget <= 0 {
		return
	}
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
	// Attempts counts how many times the cell ran under the HarnessRetry
	// policy (1 for a first-try success, 0 for a journal-served cell).
	Attempts int
	// Quarantined marks a cell that exhausted its retry budget under a
	// Quarantine policy: the sweep carried on without it, and Err holds
	// why it kept failing. Quarantined cells are reported, never
	// silently skipped, and never journaled — a resume retries them.
	Quarantined bool
	// Downgraded marks a cell the memory watermark switched from the
	// exact sample recorder to the bounded streaming histogram before it
	// ran (see SetMemoryBudget); Result.Hist carries the streaming
	// marker through the journal.
	Downgraded bool
}

// RunSpecsCtx runs every spec on the worker pool with checkpointing and
// self-healing: every cell's outcome is recorded in input order even
// when some fail, so a failed or canceled sweep keeps the cells that
// did finish. Failed cells are retried under the installed HarnessRetry
// policy, and with Quarantine set an exhausted cell is quarantined
// (reported in its CellResult) instead of sinking the sweep. Once ctx
// is canceled no new cell starts (in-flight cells abort at their next
// simulated millisecond). The returned error is the first
// non-quarantined cell error in input order, ctx.Err() if the sweep was
// cut short, or the journal's write error (wrapping ErrJournalWrite) if
// results computed fine but stopped persisting — the partial results
// are returned either way.
func RunSpecsCtx(ctx context.Context, specs []Spec) ([]CellResult, error) {
	cells := make([]CellResult, len(specs))
	forEach(len(specs), func(i int) {
		if ctx != nil && ctx.Err() != nil {
			cells[i].Err = ctx.Err()
			return
		}
		// With a checkpoint journal installed, completed cells are served
		// from the journal (each cell is a deterministic seeded run, so
		// the journaled result is byte-identical to recomputing it) and
		// fresh completions are journaled for the next resume. The key is
		// always the *requested* spec: a budget-downgraded cell journals
		// under the hash of what was asked for, and its stored histogram
		// self-describes the downgrade.
		j := ActiveJournal()
		var hash string
		if j != nil {
			hash = SpecHash(specs[i])
			if res, ok := j.Lookup(hash); ok {
				recordAudit(res.Audit)
				cells[i] = CellResult{Result: res, Done: true}
				return
			}
		}
		spec := specs[i]
		downgraded := downgradeForBudget(&spec)
		res, attempts, err := runCellAttempts(ctx, spec)
		cells[i] = CellResult{
			Result: res, Err: err, Done: err == nil,
			Attempts: attempts, Downgraded: downgraded,
		}
		if err != nil {
			if CellRetry().Quarantine && (ctx == nil || ctx.Err() == nil) {
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
	if j := ActiveJournal(); j != nil {
		if werr := j.WriteErr(); werr != nil {
			return cells, werr
		}
	}
	return cells, nil
}

// RunSpecs runs every spec on the worker pool and returns the results
// in input order. On error the completed cells are still returned
// (failed or never-started cells hold the zero Result) alongside the
// first error in input order.
func RunSpecs(specs []Spec) ([]server.Result, error) {
	cells, err := RunSpecsCtx(context.Background(), specs)
	results := make([]server.Result, len(cells))
	for i, c := range cells {
		results[i] = c.Result
	}
	return results, err
}
