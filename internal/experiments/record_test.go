package experiments

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// recordPath is the file whose per-experiment record pins the suite's
// output at Seed.
const recordPath = "../../EXPERIMENTS.md"

// recordBounds returns the offsets of the per-experiment record in md:
// the lines of the fenced block after the "## Per-experiment record"
// heading, fences excluded. The record is the suite's output without its
// final blank line.
func recordBounds(t *testing.T, md string) (start, end int) {
	t.Helper()
	h := strings.Index(md, "\n## Per-experiment record\n")
	fence := strings.Index(md[max(h, 0):], "\n```\n")
	if h < 0 || fence < 0 {
		t.Fatalf("%s has no fenced per-experiment record", recordPath)
	}
	start = h + fence + len("\n```\n")
	n := strings.Index(md[start:], "\n```\n")
	if n < 0 {
		t.Fatalf("%s's per-experiment record is not closed", recordPath)
	}
	return start, start + n + 1
}

// splitRecord splits the suite's output into its "==== Exx" blocks,
// keyed by ID.
func splitRecord(out string) (ids []string, blocks map[string]string) {
	blocks = map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "==== "); ok {
			id, _, _ = strings.Cut(rest, " ")
			ids = append(ids, id)
		}
		blocks[id] += line
	}
	return ids, blocks
}

// firstDiff names the first line where two blocks differ.
func firstDiff(rec, got string) string {
	r, g := strings.Split(rec, "\n"), strings.Split(got, "\n")
	for i := range max(len(r), len(g)) {
		var rl, gl string
		if i < len(r) {
			rl = r[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if rl != gl {
			return fmt.Sprintf("line %d:\nrecord: %s\nsuite:  %s", i+1, rl, gl)
		}
	}
	return ""
}

// TestRecordMatchesSuite: EXPERIMENTS.md records the output of
// `go run ./cmd/experiments` at Seed, and every "==== Exx" block must
// read as the suite prints it. A change that moves an experiment
// regenerates the record in the same change: SRCG_UPDATE_GOLDEN=1
// rewrites it from the suite's output.
func TestRecordMatchesSuite(t *testing.T) {
	raw, err := os.ReadFile(recordPath)
	if err != nil {
		t.Fatal(err)
	}
	md := string(raw)
	start, end := recordBounds(t, md)
	s := NewSuite()
	var out strings.Builder
	for _, id := range IDs() {
		r, err := s.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(r.String())
	}
	if os.Getenv("SRCG_UPDATE_GOLDEN") != "" {
		rec := strings.TrimSuffix(out.String(), "\n")
		if err := os.WriteFile(recordPath, []byte(md[:start]+rec+md[end:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	ids, got := splitRecord(out.String())
	recIDs, rec := splitRecord(md[start:end] + "\n")
	for _, id := range ids {
		if rec[id] != got[id] {
			t.Fatalf("%s's record of %s is not the suite's output (re-pin with SRCG_UPDATE_GOLDEN=1): %s",
				recordPath, id, firstDiff(rec[id], got[id]))
		}
	}
	if !slices.Equal(recIDs, ids) {
		t.Errorf("%s records %v; the suite runs %v", recordPath, recIDs, ids)
	}
}
