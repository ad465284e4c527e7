package lexer

import (
	"math/rand"
	"strings"
	"testing"

	"srcg/internal/discovery"
	"srcg/internal/gen"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

func allTargets() []target.Toolchain {
	return []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()}
}

func bootstrapFor(t *testing.T, tc target.Toolchain) (*discovery.Rig, *discovery.Model, []*discovery.Sample) {
	t.Helper()
	rig := discovery.NewRig(tc)
	samples, err := gen.Samples(gen.Config{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Bootstrap(rig, samples)
	if err != nil {
		t.Fatalf("Bootstrap(%s): %v", tc.Name(), err)
	}
	return rig, m, samples
}

// wantSyntax pins the facts the Lexer must discover per architecture.
var wantSyntax = map[string]struct {
	comment   string
	litPrefix string
	someRegs  []string
	notRegs   []string
	clobberOp string // mnemonic of the discovered register-set template
}{
	"x86":   {"#", "$", []string{"%eax", "%edx", "%ebp", "%edi"}, []string{"%eax8"}, "movl"},
	"sparc": {"!", "", []string{"%o0", "%l0", "%fp", "%g7"}, []string{"%o9"}, "set"},
	"mips":  {"#", "", []string{"$9", "$sp", "$31"}, []string{"$32"}, "li"},
	"alpha": {"#", "", []string{"$1", "$sp", "$31"}, []string{"$32"}, "ldil"},
	"vax":   {"#", "$", []string{"r0", "fp", "r11", "ap"}, []string{"r12"}, "movl"},
}

func TestBootstrapDiscoversSyntax(t *testing.T) {
	for _, tc := range allTargets() {
		tc := tc
		t.Run(tc.Name(), func(t *testing.T) {
			_, m, samples := bootstrapFor(t, tc)
			want := wantSyntax[tc.Name()]
			if m.CommentChar != want.comment {
				t.Errorf("comment char = %q, want %q", m.CommentChar, want.comment)
			}
			if m.LitPrefix != want.litPrefix {
				t.Errorf("literal prefix = %q, want %q", m.LitPrefix, want.litPrefix)
			}
			if _, ok := m.LitBases[10]; !ok {
				t.Errorf("decimal literals not discovered: %v", m.LitBases)
			}
			for _, r := range want.someRegs {
				if !m.RegSet[r] {
					t.Errorf("register %s not discovered; got %v", r, m.Registers)
				}
			}
			for _, r := range want.notRegs {
				if m.RegSet[r] {
					t.Errorf("non-register %s wrongly discovered", r)
				}
			}
			if m.Clobber == nil {
				t.Error("no clobber template discovered")
			} else if !strings.HasPrefix(m.ClobberText, want.clobberOp+" ") {
				// The template must be a register *set* — validateClobber's
				// idempotence probe rejects accumulating instructions like
				// the VAX's addl2 $k,r0 at a spot where r0 happens to be 0.
				t.Errorf("clobber template %q, want a %s-based set", m.ClobberText, want.clobberOp)
			}
			if m.WordBits != 32 {
				t.Errorf("word bits = %d, want 32", m.WordBits)
			}
			// Every sample must have extracted a nonempty region with all
			// operands classified.
			for _, s := range samples {
				if len(s.Region) == 0 {
					t.Errorf("%s: empty region", s.Name)
				}
				for _, ins := range s.Region {
					for _, a := range ins.Args {
						if a.Kind == discovery.KUnknown {
							t.Errorf("%s: unclassified operand %q in %s", s.Name, a.Text, ins)
						}
					}
				}
			}
		})
	}
}

func TestSPARCImmediateRange(t *testing.T) {
	_, m, _ := bootstrapFor(t, sparc.New())
	// The paper's headline example: add's immediate is [-4096,4095].
	var found bool
	for key, r := range m.ImmRange {
		if strings.HasPrefix(key, "add:") && r[0] == -4096 && r[1] == 4095 {
			found = true
		}
	}
	if !found {
		t.Errorf("SPARC add range not discovered; got %v", m.ImmRange)
	}
}

func TestAlphaLiteralRange(t *testing.T) {
	_, m, _ := bootstrapFor(t, alpha.New())
	var found bool
	for key, r := range m.ImmRange {
		if strings.HasPrefix(key, "addl:") && r[0] == 0 && r[1] == 255 {
			found = true
		}
	}
	if !found {
		t.Errorf("Alpha operate literal range not discovered; got %v", m.ImmRange)
	}
}

func TestVAXRegionIsMemoryToMemory(t *testing.T) {
	_, m, samples := bootstrapFor(t, vax.New())
	_ = m
	for _, s := range samples {
		if s.Name != "int.add.b_c" {
			continue
		}
		// The Fig. 3 region: a single addl3 between frame slots.
		if len(s.Region) != 1 || s.Region[0].Op != "addl3" {
			t.Errorf("VAX add region = %v", s.Region)
		}
		for _, a := range s.Region[0].Args {
			if a.Kind != discovery.KMem {
				t.Errorf("operand %q kind = %v, want mem", a.Text, a.Kind)
			}
		}
	}
}

func TestExtractionRebuildRoundTrips(t *testing.T) {
	for _, tc := range allTargets() {
		tc := tc
		t.Run(tc.Name(), func(t *testing.T) {
			rig, _, samples := bootstrapFor(t, tc)
			for _, s := range samples {
				rebuilt := s.Rebuild(s.Region)
				u1, err := rig.Assemble(rebuilt)
				if err != nil {
					t.Errorf("%s: rebuilt text does not assemble: %v", s.Name, err)
					continue
				}
				initU, err := rig.Assemble(mustCompileTest(t, rig, s.InitSource))
				if err != nil {
					t.Fatal(err)
				}
				helpers, err := rig.Assemble(mustCompileTest(t, rig, s.HelperSource))
				if err != nil {
					t.Fatal(err)
				}
				out, err := rig.LinkRun(u1, initU, helpers)
				if err != nil {
					t.Errorf("%s: rebuilt program failed: %v", s.Name, err)
					continue
				}
				if out != s.ExpectedOut {
					t.Errorf("%s: rebuilt output %q, want %q", s.Name, out, s.ExpectedOut)
				}
			}
		})
	}
}

func mustCompileTest(t *testing.T, rig *discovery.Rig, src string) string {
	t.Helper()
	text, err := rig.CompileAsm(src)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

func TestModesDiscovered(t *testing.T) {
	_, m, _ := bootstrapFor(t, x86.New())
	var frameMode bool
	for _, mode := range m.Modes {
		if strings.Contains(mode, "⟨n⟩(⟨r⟩)") || mode == "⟨n⟩(⟨r⟩)" {
			frameMode = true
		}
	}
	if !frameMode {
		t.Errorf("x86 displacement mode not discovered; modes = %v", m.Modes)
	}
}
