package experiments

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// v2Line frames a payload as a valid v2 journal record.
func v2Line(seq uint64, payload string) string {
	return fmt.Sprintf("j2 %d %08x %s\n", seq, crc32.Checksum([]byte(payload), crcTable), payload)
}

// TestFsckDegenerateJournals pins the damage taxonomy for journals that
// are broken in shape rather than in content: a zero-length file, a
// whitespace-only line, and a v2 header with no payload are three
// distinct states and must not be lumped into torn/bad-crc.
func TestFsckDegenerateJournals(t *testing.T) {
	t.Parallel()
	good := `{"spec":"aaaa","result":{}}`
	cases := []struct {
		name     string
		contents string
		check    func(t *testing.T, rep FsckReport)
	}{
		{"zero-length file", "", func(t *testing.T, rep FsckReport) {
			if !rep.Empty {
				t.Fatalf("zero-byte journal not reported Empty: %+v", rep)
			}
			if !rep.Clean() {
				t.Fatalf("an empty journal is healthy, not damaged: %+v", rep)
			}
			if rep.Lines != 0 || rep.Cells != 0 {
				t.Fatalf("fabricated content in an empty journal: %+v", rep)
			}
			if s := rep.String(); !strings.Contains(s, "empty") {
				t.Fatalf("fsck output does not say the journal is empty:\n%s", s)
			}
		}},
		{"whitespace-only line", " \t \n" + v2Line(1, good), func(t *testing.T, rep FsckReport) {
			if rep.Blank != 1 {
				t.Fatalf("whitespace-only line not counted as Blank: %+v", rep)
			}
			if rep.Torn != 0 || rep.BadCRC != 0 || rep.NoPayload != 0 {
				t.Fatalf("blank line leaked into another damage class: %+v", rep)
			}
			if rep.Clean() {
				t.Fatal("blank line is damage; journal reported clean")
			}
			if rep.V2 != 1 || rep.Cells != 1 {
				t.Fatalf("intact record next to the blank line was lost: %+v", rep)
			}
		}},
		{"v2 header with no payload", "j2 1 00000000\nj2 2 deadbeef \n" + v2Line(3, good),
			func(t *testing.T, rep FsckReport) {
				// Both shapes — header-only line and header plus a
				// separator with zero payload bytes — are the same class.
				if rep.NoPayload != 2 {
					t.Fatalf("payload-less frames not counted as NoPayload: %+v", rep)
				}
				if rep.Torn != 0 || rep.BadCRC != 0 || rep.Blank != 0 {
					t.Fatalf("payload-less frame leaked into another damage class: %+v", rep)
				}
				if rep.Clean() {
					t.Fatal("payload-less frame is damage; journal reported clean")
				}
				if rep.V2 != 1 || rep.Cells != 1 {
					t.Fatalf("intact record after the damaged frames was lost: %+v", rep)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.journal")
			if err := os.WriteFile(path, []byte(tc.contents), 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := FsckJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, rep)

			// OpenJournal must agree with -fsck and stay usable: the
			// degenerate journal loads, reports the same damage, and
			// accepts appends.
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("degenerate journal refused to open: %v", err)
			}
			defer j.Close()
			if lr := j.LoadReport(); lr != rep {
				t.Fatalf("LoadReport %+v disagrees with FsckJournal %+v", lr, rep)
			}
		})
	}
}
