package harnesschaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nmapsim/internal/experiments"
	"nmapsim/internal/server"
	"nmapsim/internal/sim"
	"nmapsim/internal/workload"
)

// The chaos gate: for every harness fault — kill mid-sweep, torn
// journal line, corrupted CRC, duplicated record, flaky cell, poison
// cell, simulated ENOSPC — the recovered sweep must render byte-for-byte
// what an unfaulted sweep renders. Every cell is a deterministic seeded
// run, so any divergence is a harness bug, not noise.

func chaosSpecs() []experiments.Spec {
	prof := workload.Memcached()
	specs := make([]experiments.Spec, 3)
	for i := range specs {
		specs[i] = experiments.Spec{
			Policy: "performance",
			Idle:   "menu",
			Cfg: server.Config{
				Seed:     42,
				Profile:  prof,
				RPS:      prof.HighRPS * float64(i+1) / 8,
				Warmup:   10 * sim.Millisecond,
				Duration: 40 * sim.Millisecond,
			},
		}
	}
	return specs
}

// resetHarness restores every package-level orchestration knob the test
// touched, so chaos scenarios cannot leak into each other.
func resetHarness(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		experiments.SetJournal(nil)
		experiments.SetCellFault(nil)
		experiments.SetCellRetry(experiments.HarnessRetry{})
		experiments.SetMemoryBudget(0)
		experiments.SetParallelism(0)
	})
}

// render canonicalises sweep results for byte comparison.
func render(t *testing.T, results []server.Result) []byte {
	t.Helper()
	b, err := json.Marshal(results)
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	return b
}

// reference runs the unfaulted, unjournaled sweep.
func reference(t *testing.T, specs []experiments.Spec) []byte {
	t.Helper()
	res, err := experiments.RunSpecs(specs)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	return render(t, res)
}

// resumeAndCompare opens the (possibly damaged) journal at path, runs
// the full sweep against it, and requires byte-identity with ref.
func resumeAndCompare(t *testing.T, path string, specs []experiments.Spec, ref []byte) {
	t.Helper()
	j, err := experiments.OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	experiments.SetJournal(j)
	cells, err := experiments.RunSpecsCtx(context.Background(), specs)
	experiments.SetJournal(nil)
	j.Close()
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	results := make([]server.Result, len(cells))
	for i, c := range cells {
		results[i] = c.Result
	}
	if got := render(t, results); !bytes.Equal(got, ref) {
		t.Fatalf("resumed sweep diverged from the unfaulted run:\n got  %d bytes\n want %d bytes", len(got), len(ref))
	}
}

// journalPrefix journals the first n cells of the sweep to path.
func journalPrefix(t *testing.T, path string, specs []experiments.Spec, n int) {
	t.Helper()
	j, err := experiments.OpenJournal(path)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	experiments.SetJournal(j)
	_, err = experiments.RunSpecsCtx(context.Background(), specs[:n])
	experiments.SetJournal(nil)
	j.Close()
	if err != nil {
		t.Fatalf("prefix sweep: %v", err)
	}
}

// TestChaosKillMidSweep simulates a kill that lands mid-Record: two
// cells journaled, then a torn fragment of a third. The resume must
// drop the fragment and recompute only what is missing.
func TestChaosKillMidSweep(t *testing.T) {
	resetHarness(t)
	specs := chaosSpecs()
	ref := reference(t, specs)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	journalPrefix(t, path, specs, 2)

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`j2 3 deadbeef {"spec":"abcd","result":{"Ener`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumeAndCompare(t, path, specs, ref)
}

// TestChaosTornLine truncates the journal mid-record after a clean
// sweep: the torn tail must be detected, dropped, and recomputed.
func TestChaosTornLine(t *testing.T) {
	resetHarness(t)
	specs := chaosSpecs()
	ref := reference(t, specs)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	journalPrefix(t, path, specs, len(specs))

	if err := TruncateTail(path, 20); err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.FsckJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || !rep.TornTail {
		t.Fatalf("fsck missed the torn tail: %+v", rep)
	}
	resumeAndCompare(t, path, specs, ref)
}

// TestChaosCorruptedCRC flips a byte inside a journaled record: the
// checksum must reject the record and the resume recomputes that cell.
func TestChaosCorruptedCRC(t *testing.T) {
	resetHarness(t)
	specs := chaosSpecs()
	ref := reference(t, specs)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	journalPrefix(t, path, specs, len(specs))

	if err := CorruptLine(path, 1); err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.FsckJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.BadCRC == 0 {
		t.Fatalf("fsck missed the corrupted record: %+v", rep)
	}
	resumeAndCompare(t, path, specs, ref)
}

// TestChaosDuplicatedLine replays a journal record: the duplicated
// sequence number must be detected and the duplicate dropped.
func TestChaosDuplicatedLine(t *testing.T) {
	resetHarness(t)
	specs := chaosSpecs()
	ref := reference(t, specs)
	path := filepath.Join(t.TempDir(), "sweep.journal")
	journalPrefix(t, path, specs, len(specs))

	if err := DuplicateLine(path, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.FsckJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.DupSeq != 1 {
		t.Fatalf("fsck missed the duplicated record: %+v", rep)
	}
	resumeAndCompare(t, path, specs, ref)
}

// TestChaosFlakyCellRecovered fails one cell's first two attempts: the
// retry policy must carry it to success with results byte-identical to
// a run that never failed.
func TestChaosFlakyCellRecovered(t *testing.T) {
	resetHarness(t)
	specs := chaosSpecs()
	ref := reference(t, specs)

	target := specs[1].Cfg.RPS
	experiments.SetCellFault(FailingCells(func(s experiments.Spec) bool {
		return s.Cfg.RPS == target
	}, 2))
	if err := experiments.SetCellRetry(experiments.HarnessRetry{
		MaxRetries: 3,
		Backoff:    time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	cells, err := experiments.RunSpecsCtx(context.Background(), specs)
	if err != nil {
		t.Fatalf("flaky sweep did not recover: %v", err)
	}
	if cells[1].Attempts != 3 {
		t.Fatalf("flaky cell ran %d attempt(s), want 3", cells[1].Attempts)
	}
	if cells[0].Attempts != 1 || cells[2].Attempts != 1 {
		t.Fatalf("healthy cells retried: %d, %d attempts", cells[0].Attempts, cells[2].Attempts)
	}
	results := make([]server.Result, len(cells))
	for i, c := range cells {
		results[i] = c.Result
	}
	if got := render(t, results); !bytes.Equal(got, ref) {
		t.Fatal("recovered flaky sweep diverged from the unfaulted run")
	}
}

// TestChaosPoisonCellQuarantined gives one cell a permanent harness
// fault: with quarantine on, the sweep must finish, report the poison
// cell explicitly, keep it out of the journal, and heal completely on a
// fault-free resume.
func TestChaosPoisonCellQuarantined(t *testing.T) {
	resetHarness(t)
	specs := chaosSpecs()
	ref := reference(t, specs)
	path := filepath.Join(t.TempDir(), "sweep.journal")

	target := specs[1].Cfg.RPS
	experiments.SetCellFault(FailingCells(func(s experiments.Spec) bool {
		return s.Cfg.RPS == target
	}, -1))
	if err := experiments.SetCellRetry(experiments.HarnessRetry{
		MaxRetries: 1,
		Quarantine: true,
	}); err != nil {
		t.Fatal(err)
	}
	j, err := experiments.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	experiments.SetJournal(j)
	cells, err := experiments.RunSpecsCtx(context.Background(), specs)
	experiments.SetJournal(nil)
	j.Close()
	if err != nil {
		t.Fatalf("quarantine did not keep the sweep alive: %v", err)
	}
	if !cells[1].Quarantined || cells[1].Err == nil {
		t.Fatalf("poison cell not quarantined: %+v", cells[1])
	}
	if !strings.Contains(cells[1].Err.Error(), "poison") {
		t.Fatalf("quarantine error does not carry the cause: %v", cells[1].Err)
	}
	if cells[0].Quarantined || cells[2].Quarantined {
		t.Fatal("healthy cells quarantined")
	}
	var want []server.Result
	if err := json.Unmarshal(ref, &want); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if !bytes.Equal(render(t, []server.Result{cells[i].Result}), render(t, []server.Result{want[i]})) {
			t.Fatalf("healthy cell %d diverged under quarantine", i)
		}
	}

	// The poison cell must not be journaled; a fault-free resume heals.
	experiments.SetCellFault(nil)
	experiments.SetCellRetry(experiments.HarnessRetry{})
	resumeAndCompare(t, path, specs, ref)
}

// TestChaosENOSPC runs a journaled sweep against a disk that fills up
// mid-record: the sweep must still compute every cell, surface
// ErrJournalWrite exactly once, leave no half-written record behind,
// and resume to byte-identity once space is back.
func TestChaosENOSPC(t *testing.T) {
	resetHarness(t)
	specs := chaosSpecs()
	ref := reference(t, specs)

	// Learn the first record's size from a throwaway journal so the
	// budget lands mid-way through the second record.
	probe := filepath.Join(t.TempDir(), "probe.journal")
	journalPrefix(t, probe, specs, 1)
	st, err := os.Stat(probe)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.journal")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	j, err := experiments.NewJournal(&ENOSPCFile{F: f, Budget: st.Size() + 37}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The budget is sized from cell 0's record, so cell 0 must be the
	// first one journaled: with more workers a larger cell can finish
	// first, and its own first write overruns the budget.
	experiments.SetParallelism(1)
	experiments.SetJournal(j)
	cells, err := experiments.RunSpecsCtx(context.Background(), specs)
	experiments.SetJournal(nil)
	experiments.SetParallelism(0)
	j.Close()
	if !errors.Is(err, experiments.ErrJournalWrite) {
		t.Fatalf("full disk not surfaced as ErrJournalWrite: %v", err)
	}
	results := make([]server.Result, len(cells))
	for i, c := range cells {
		if !c.Done {
			t.Fatalf("cell %d lost to a full disk: %v", i, c.Err)
		}
		results[i] = c.Result
	}
	if got := render(t, results); !bytes.Equal(got, ref) {
		t.Fatal("ENOSPC sweep results diverged from the unfaulted run")
	}

	// No half-written record may survive: the journal truncated back to
	// the last good record, so fsck is clean and only cell 1 is stored.
	rep, err := experiments.FsckJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("journal left damage behind after ENOSPC: %+v", rep)
	}
	if rep.Cells != 1 {
		t.Fatalf("journal holds %d cell(s) after ENOSPC, want 1", rep.Cells)
	}
	resumeAndCompare(t, path, specs, ref)
}
