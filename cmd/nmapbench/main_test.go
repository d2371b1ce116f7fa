package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateFlags pins the CLI error paths for bad numeric flags: each
// rejection must name the offending flag. -best-of in particular used to
// be silently clamped to 1; it is now rejected so a typo'd invocation
// cannot quietly record a single-sample baseline.
func TestValidateFlags(t *testing.T) {
	ok := benchFlags{parallel: 0, bestOf: 5, benchTime: 2, microTime: 2}
	cases := []struct {
		name    string
		mutate  func(*benchFlags)
		wantErr string // empty = accept
	}{
		{"defaults accepted", func(*benchFlags) {}, ""},
		{"serial best-of-1 accepted", func(f *benchFlags) { f.bestOf = 1; f.parallel = 1 }, ""},
		{"negative parallel", func(f *benchFlags) { f.parallel = -1 }, "-parallel"},
		{"zero best-of", func(f *benchFlags) { f.bestOf = 0 }, "-best-of"},
		{"negative best-of", func(f *benchFlags) { f.bestOf = -5 }, "-best-of"},
		{"zero bench-time", func(f *benchFlags) { f.benchTime = 0 }, "-bench-time"},
		{"negative bench-time", func(f *benchFlags) { f.benchTime = -2 }, "-bench-time"},
		{"zero micro-time", func(f *benchFlags) { f.microTime = 0 }, "-micro-time"},
		{"negative micro-time", func(f *benchFlags) { f.microTime = -0.5 }, "-micro-time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok
			tc.mutate(&f)
			err := validateFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want accept, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want rejection naming %s, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %s", err, tc.wantErr)
			}
		})
	}
}

// TestFailedCompareKeepsCPUProfile: a -compare that finds a regression
// exits non-zero, and the CPU profile it was asked for must still be
// flushed — every exit path returns through run's deferred
// StopCPUProfile instead of os.Exit skipping it.
func TestFailedCompareKeepsCPUProfile(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	// A baseline no host can meet: every engine op at 1 picosecond.
	if err := os.WriteFile(base, []byte(`{"engine":{
		"EngineScheduleFire":{"ns_per_op":0.001},
		"EngineCancel":{"ns_per_op":0.001},
		"HistPercentile":{"ns_per_op":0.001}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "cpu.prof")
	code := run([]string{"-compare", base, "-best-of", "1", "-micro-time", "0.01",
		"-bench-time", "0.001", "-cpuprofile", prof})
	if code != 1 {
		t.Fatalf("-compare against an unmeetable baseline exited %d, want 1", code)
	}
	gz, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(gz) == 0 {
		t.Fatal("CPU profile is empty: the failing exit skipped StopCPUProfile")
	}
	strs, err := profileStrings(gz)
	if err != nil {
		t.Fatalf("CPU profile does not parse: %v", err)
	}
	if !strs["cpu"] || !strs["nanoseconds"] {
		t.Fatalf("CPU profile lacks the cpu/nanoseconds sample type; string table %v", strs)
	}
}

// profileStrings gunzips a profile.proto, checks that its top-level
// fields are well-formed protobuf, and returns its string table (field
// 6).
func profileStrings(gz []byte) (map[string]bool, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	strs := map[string]bool{}
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		switch key & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(b); n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("truncated field")
			}
			if key>>3 == 6 {
				strs[string(b[n:n+int(l)])] = true
			}
			b = b[n+int(l):]
		default:
			return nil, errors.New("unexpected wire type")
		}
	}
	return strs, nil
}
