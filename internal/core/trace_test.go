package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"srcg/internal/obs"
	"srcg/internal/target/vax"
)

// vaxTrace holds the one checked seed-1 vax discovery, traced to JSONL,
// that the trace tests and the probe-budget golden share.
var vaxTrace struct {
	once sync.Once
	d    *Discovery
	raw  []byte
	err  error
}

// discoverVaxTrace runs the checked vax discovery with a JSONL trace on
// first use and returns it with the raw trace bytes.
func discoverVaxTrace(t *testing.T) (*Discovery, []byte) {
	t.Helper()
	vaxTrace.once.Do(func() {
		var buf bytes.Buffer
		tr := obs.New(nil, obs.NewJSONLSink(&buf))
		d, err := Discover(vax.New(), Options{Seed: 1, Check: true, Trace: tr})
		if err == nil {
			err = tr.Flush()
		}
		vaxTrace.d, vaxTrace.raw, vaxTrace.err = d, buf.Bytes(), err
	})
	if vaxTrace.err != nil {
		t.Fatalf("vax discovery: %v", vaxTrace.err)
	}
	return vaxTrace.d, vaxTrace.raw
}

// TestTraceSchemaValid holds every line of a real end-to-end trace to the
// exported event schema: each line is valid JSON, its kind is known, all
// of the kind's required fields are present, and no field outside
// required+optional appears. The trace exercises every event kind the
// clean pipeline can emit (spans, probes, counters, hists).
func TestTraceSchemaValid(t *testing.T) {
	if testing.Short() {
		t.Skip("full vax discovery")
	}
	_, raw := discoverVaxTrace(t)
	kindsSeen := map[string]int{}
	for i, line := range bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n")) {
		var fields map[string]any
		if err := json.Unmarshal(line, &fields); err != nil {
			t.Fatalf("line %d: invalid JSON: %v\n%s", i+1, err, line)
		}
		kind, _ := fields["kind"].(string)
		schema, ok := obs.Schema[kind]
		if !ok {
			t.Fatalf("line %d: unknown kind %q", i+1, kind)
		}
		kindsSeen[kind]++
		allowed := map[string]bool{}
		for _, f := range schema.Required {
			if _, present := fields[f]; !present {
				t.Errorf("line %d (%s): missing required field %q\n%s", i+1, kind, f, line)
			}
			allowed[f] = true
		}
		for _, f := range schema.Optional {
			allowed[f] = true
		}
		for f := range fields {
			if !allowed[f] {
				t.Errorf("line %d (%s): field %q outside the schema\n%s", i+1, kind, f, line)
			}
		}
	}
	// A clean run must produce spans, probes, and the Flush tail; the
	// fault-only kinds (retry, quorum, drop) are covered by the probe
	// layer's own tests.
	for _, kind := range []string{"span_begin", "span_end", "probe", "counter", "hist"} {
		if kindsSeen[kind] == 0 {
			t.Errorf("trace has no %q events", kind)
		}
	}
}

// traceDigest summarizes a trace for the golden file: total line count,
// per-kind event counts, and the stream's SHA-256 — small enough to
// commit, strong enough that any byte of drift fails.
func traceDigest(raw []byte) string {
	counts := map[string]int{}
	lines := 0
	for _, line := range bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n")) {
		lines++
		var fields struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &fields); err == nil {
			counts[fields.Kind]++
		}
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var sb strings.Builder
	fmt.Fprintf(&sb, "lines %d\n", lines)
	sum := sha256.Sum256(raw)
	fmt.Fprintf(&sb, "sha256 %s\n", hex.EncodeToString(sum[:]))
	for _, k := range kinds {
		fmt.Fprintf(&sb, "%s %d\n", k, counts[k])
	}
	return sb.String()
}

// TestVaxTraceGolden pins the vax discovery trace against a committed
// digest: line count, per-kind counts, and the stream hash. The full
// trace is ~1 MB, so the digest stands in for it; regenerate with
//
//	SRCG_UPDATE_GOLDEN=1 go test ./internal/core -run TestVaxTraceGolden
//
// after an intentional pipeline or telemetry change.
func TestVaxTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full vax discovery")
	}
	golden := filepath.Join("testdata", "vax_trace_digest.txt")
	_, raw := discoverVaxTrace(t)
	got := traceDigest(raw)
	if os.Getenv("SRCG_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden digest (SRCG_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("vax trace digest drifted from golden:\n--- want\n%s--- got\n%s"+
			"An intentional telemetry or pipeline change needs SRCG_UPDATE_GOLDEN=1.",
			want, got)
	}
}
