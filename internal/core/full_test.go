package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

// TestFullShapeDiscovery runs discovery with the complete §3 operand-shape
// sample set (the paper's ~150 samples per type) on every architecture.
// Every non-degenerate sample must extract — except the VAX's right-shift
// family, which compiles to ashl with a negated count and is exactly the
// limitation the paper reports (§5.2.3). Each target's machine
// description is pinned by its sha256 in testdata/full_md_digest.txt;
// regenerate with
//
//	SRCG_UPDATE_GOLDEN=1 go test ./internal/core -run TestFullShapeDiscovery
//
// only after a change meant to alter what full-shape discovery learns.
// Slower, so skipped under -short.
func TestFullShapeDiscovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full shape set is slow")
	}
	golden := filepath.Join("testdata", "full_md_digest.txt")
	update := os.Getenv("SRCG_UPDATE_GOLDEN") != ""
	want := map[string]string{}
	if !update {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("read golden digests (SRCG_UPDATE_GOLDEN=1 to create): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if arch, sum, ok := strings.Cut(line, " "); ok {
				want[arch] = strings.TrimSpace(sum)
			}
		}
	}
	var got strings.Builder
	for _, tc := range []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()} {
		tc := tc
		t.Run(tc.Name(), func(t *testing.T) {
			d, err := Discover(tc, Options{Seed: 7, Full: true})
			if err != nil {
				t.Fatal(err)
			}
			failed := append([]string(nil), d.Outcome.Failed...)
			sort.Strings(failed)
			if tc.Name() == "vax" {
				for _, name := range failed {
					if !strings.HasPrefix(name, "int.shr.") {
						t.Errorf("unexpected failure beyond the ashl family: %s", name)
					}
				}
				if len(failed) == 0 {
					t.Error("expected the paper's ashl right-shift failures on the VAX")
				}
			} else if len(failed) != 0 {
				t.Errorf("failures: %v", failed)
			}
			if len(d.Outcome.Solved) < 85 {
				t.Errorf("solved only %d samples", len(d.Outcome.Solved))
			}
			// The skips must all be degenerate shapes (identity payloads
			// and valuation-invariant results), not analysis breakdowns.
			for name, reason := range d.Skipped {
				if !strings.Contains(reason, "no observable effect") &&
					!strings.Contains(reason, "valuation-invariant") {
					t.Errorf("unexpected skip %s: %s", name, reason)
				}
			}
			if d.SpecErr != nil {
				t.Errorf("synthesis: %v", d.SpecErr)
			}
			if d.Spec == nil {
				t.Fatal("no machine description")
			}
			sum := sha256.Sum256([]byte(d.Spec.RenderBEG(d.Model)))
			digest := hex.EncodeToString(sum[:])
			fmt.Fprintf(&got, "%s %s\n", tc.Name(), digest)
			if !update && digest != want[tc.Name()] {
				t.Errorf("machine description sha256 %s, golden %s", digest, want[tc.Name()])
			}
			for _, r := range d.Validate(tc, ValidationSuite) {
				if !r.OK && tc.Name() != "vax" {
					t.Errorf("%s: %v got=%q want=%q", r.Program, r.Err, r.Got, r.Want)
				}
			}
		})
	}
	if update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
	}
}

// TestFullShapeVAXSignedShifts exercises the SignedShifts extension on the
// architecture it exists for: with the signed-count shift primitive the
// complete VAX shape set — including every ashl-based right shift the paper
// reports as unhandled (§5.2.3) — must extract with no failures. The only
// discards are the degenerate shapes (a = a & a identities and
// valuation-invariant payloads like b >> b).
func TestFullShapeVAXSignedShifts(t *testing.T) {
	if testing.Short() {
		t.Skip("full shape set is slow")
	}
	d, err := Discover(vax.New(), Options{Seed: 3, Full: true, SignedShifts: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Outcome.Failed) != 0 {
		t.Errorf("failures with SignedShifts: %v", d.Outcome.Failed)
	}
	if len(d.Outcome.Solved) < 85 {
		t.Errorf("solved only %d samples", len(d.Outcome.Solved))
	}
	if len(d.Spec.Gaps) != 0 {
		t.Errorf("operation gaps remain: %v", d.Spec.Gaps)
	}
	if d.SpecErr != nil {
		t.Fatalf("synthesis: %v", d.SpecErr)
	}
	for _, r := range d.Validate(vax.New(), ValidationSuite) {
		if !r.OK {
			t.Errorf("%s: %v got=%q want=%q", r.Program, r.Err, r.Got, r.Want)
		}
	}
}
