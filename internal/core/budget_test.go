package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"srcg/internal/mutate"
)

// TestProbeBudgetGolden pins what a clean seed-1 discovery of each target
// spends: toolchain calls (ProbeStats.Attempts), assemblies, links and
// mutant runs, and the mutant runs of each §4 analysis, so a diff names
// the analysis that moved. A change that adds round-trips fails here
// instead of only moving a benchmark number; regenerate with
//
//	SRCG_UPDATE_GOLDEN=1 go test ./internal/core -run TestProbeBudgetGolden
//
// after an intentional change to what discovery probes.
func TestProbeBudgetGolden(t *testing.T) {
	var sb strings.Builder
	for _, tt := range gauntletTargets {
		var d *Discovery
		if tt.arch == "vax" {
			d, _ = discoverVaxTrace(t)
		} else {
			var err error
			if d, err = Discover(tt.ctor(), Options{Seed: 1, Check: true}); err != nil {
				t.Fatalf("%s discovery: %v", tt.arch, err)
			}
		}
		st := d.Rig.Stats()
		fmt.Fprintf(&sb, "%-6s attempts=%d assemblies=%d links=%d mutations=%d\n",
			tt.arch, d.ProbeStats.Attempts, st.Assemblies, st.Links, st.Mutations)
		fmt.Fprintf(&sb, "%-6s runs:", tt.arch)
		for _, an := range mutate.AnalysisNames {
			fmt.Fprintf(&sb, " %s=%d", an, d.Trace.Counter(mutate.RunsCounter(an)))
		}
		sb.WriteString("\n")
	}
	got := sb.String()
	golden := filepath.Join("testdata", "probe_budget.txt")
	if os.Getenv("SRCG_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden budget (SRCG_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("probe budget drifted from golden:\n--- want\n%s--- got\n%s"+
			"An intentional change to what discovery probes needs SRCG_UPDATE_GOLDEN=1.",
			want, got)
	}
}
