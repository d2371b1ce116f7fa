package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

var sink uint64

//go:noinline
func spin(d time.Duration) {
	x := sink
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

// TestLedgerChargesOwnPackage profiles a busy loop in this package and
// checks the decoded ledger charges most of the CPU time to it, the
// time.Now calls included. Under go test the package's symbols carry its
// import path, nmapsim/perfbench, rather than main.
func TestLedgerChargesOwnPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	l := cpuLedger{}
	if err := l.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if l["total"] == 0 || l["perfbench"] < l["total"]/2 {
		t.Fatalf("ledger %v: want most of the profile in package perfbench", l)
	}
}

func TestPkgOf(t *testing.T) {
	for sym, want := range map[string]string{
		"nmapsim/internal/kernel.(*CoreKernel).runApp": "kernel",
		"runtime.memmove":                    "runtime",
		"slices.pdqsortCmpFunc[...]":         "slices",
		"main.timedIdle.SelectState":         "main",
		"nmapsim/internal/sim.(*Engine).Run": "sim",
	} {
		if got := pkgOf(sym); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", sym, got, want)
		}
	}
}
