package core

import (
	"testing"

	"srcg/internal/faulty"
	"srcg/internal/probe"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

var gauntletTargets = []struct {
	arch string
	ctor func() target.Toolchain
}{
	{"x86", func() target.Toolchain { return x86.New() }},
	{"sparc", func() target.Toolchain { return sparc.New() }},
	{"mips", func() target.Toolchain { return mips.New() }},
	{"alpha", func() target.Toolchain { return alpha.New() }},
	{"vax", func() target.Toolchain { return vax.New() }},
}

// TestDiscoveryByteIdenticalUnderFaults is the acceptance gauntlet: with a
// seeded fault schedule injecting transient toolchain errors at >=10% per
// call plus scratch-register output noise, Discover must complete on every
// target and synthesize a machine description byte-identical to the clean
// run's — the probe layer retried every injected error and the output
// quorum outvoted every lie, so not one bit of noise reached analysis.
func TestDiscoveryByteIdenticalUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full five-target gauntlet")
	}
	for _, tt := range gauntletTargets {
		tt := tt
		t.Run(tt.arch, func(t *testing.T) {
			t.Parallel()
			opts := Options{Seed: 11}
			clean, err := Discover(tt.ctor(), opts)
			if err != nil {
				t.Fatalf("clean discovery failed: %v", err)
			}
			if clean.Spec == nil {
				t.Fatalf("clean discovery synthesized no spec: %v", clean.SpecErr)
			}
			want := clean.Spec.RenderBEG(clean.Model)

			inj := faulty.New(tt.ctor(), faulty.Config{Seed: 7, Rate: 0.12, Noise: 0.10})
			d, err := Discover(inj, opts)
			if err != nil {
				t.Fatalf("faulty discovery aborted: %v", err)
			}
			if inj.InjectedTotal() == 0 {
				t.Fatal("the gauntlet injected nothing — the test proves nothing")
			}
			if d.Spec == nil {
				t.Fatalf("faulty discovery synthesized no spec: %v", d.SpecErr)
			}
			got := d.Spec.RenderBEG(d.Model)
			if got != want {
				t.Errorf("machine description diverged under faults (%d vs %d bytes)",
					len(got), len(want))
			}
			ps := d.ProbeStats
			if ps.Retries == 0 && ps.FaultsSurvived == 0 {
				t.Errorf("probe stats show no resilience work despite %d injected faults: %s",
					inj.InjectedTotal(), ps)
			}
			if ps.Exhausted != 0 {
				t.Errorf("probe budget exhausted %d times at a 12%% fault rate: %s",
					ps.Exhausted, ps)
			}
			assertExpectShortcutSafe(t, clean.ProbeStats, ps)
			t.Logf("%s: injected=%d %s", tt.arch, inj.InjectedTotal(), ps)
		})
	}
}

// TestQuorumNeverAttributesNoiseAsSemantics pins the §4 safety property at
// the pipeline level: scratch-register noise alone (no injected errors, so
// every run "succeeds") must not change a single solved semantics.
func TestQuorumNeverAttributesNoiseAsSemantics(t *testing.T) {
	opts := Options{Seed: 11}
	clean, err := Discover(x86.New(), opts)
	if err != nil {
		t.Fatal(err)
	}
	inj := faulty.New(x86.New(), faulty.Config{Seed: 23, Rate: 0, Noise: 0.15})
	d, err := Discover(inj, opts)
	if err != nil {
		t.Fatalf("noisy discovery aborted: %v", err)
	}
	if inj.InjectedTotal() == 0 {
		t.Fatal("no noise injected")
	}
	if got, want := d.Spec.RenderBEG(d.Model), clean.Spec.RenderBEG(clean.Model); got != want {
		t.Error("pure output noise changed the synthesized machine description")
	}
	if d.ProbeStats.QuorumConflicts == 0 {
		t.Error("noise at 15% must surface as quorum conflicts")
	}
	assertExpectShortcutSafe(t, clean.ProbeStats, d.ProbeStats)
}

// assertExpectShortcutSafe pins the safety argument of the one-run
// expect shortcut (DESIGN §7): the clean machine uses it, and on the lying
// machine the lexer bootstrap's quorums latch the prober before the first
// mutant runs, so not one mutant verdict there rests on a single run.
func assertExpectShortcutSafe(t *testing.T, clean, lying probe.Stats) {
	t.Helper()
	if clean.ExpectAccepts == 0 {
		t.Errorf("the clean machine never took the one-run shortcut: %s", clean)
	}
	if lying.ExpectAccepts != 0 {
		t.Errorf("the lying machine settled %d mutant runs alone; the latch tripped too late: %s",
			lying.ExpectAccepts, lying)
	}
}
