package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"srcg/internal/dfg"
	"srcg/internal/discovery"
	"srcg/internal/lexer"
	"srcg/internal/mutate"
	"srcg/internal/sem"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

func discover(t *testing.T, tc target.Toolchain) *Discovery {
	t.Helper()
	d, err := Discover(tc, Options{Seed: 11})
	if err != nil {
		t.Fatalf("Discover(%s): %v", tc.Name(), err)
	}
	return d
}

// findSem returns the semantics of the first signature whose opcode matches.
func findSem(d *Discovery, op string) (string, *sem.Sem) {
	for sig, s := range d.Ext.Sems {
		if strings.HasPrefix(sig, op+":") || sig == op+":" {
			return sig, s
		}
	}
	return "", nil
}

func TestDiscoverAllTargets(t *testing.T) {
	// §7.2: the unit must discover the integer instruction sets of all
	// five architectures. We allow a small number of failed samples
	// ("almost correct" specs) but the bulk must solve.
	for _, tc := range []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()} {
		tc := tc
		t.Run(tc.Name(), func(t *testing.T) {
			d := discover(t, tc)
			total := len(d.Outcome.Solved) + len(d.Outcome.Failed)
			if len(d.Outcome.Failed) > total/5 {
				t.Errorf("too many failures: solved=%d failed=%v skipped=%v",
					len(d.Outcome.Solved), d.Outcome.Failed, d.Skipped)
			}
			if len(d.Skipped) > 2 {
				t.Errorf("too many skipped samples: %v", d.Skipped)
			}
		})
	}
}

func TestX86Semantics(t *testing.T) {
	d := discover(t, x86.New())
	cases := map[string]string{
		"addl":  "add",
		"subl":  "sub(a1, load(a0))",
		"imull": "mul",
		"idivl": "div(r%eax, load(a0))",
		"negl":  "neg",
		"cmpl":  "compare",
	}
	for op, want := range cases {
		sig, s := findSem(d, op)
		if s == nil {
			t.Errorf("no semantics discovered for %s", op)
			continue
		}
		if !strings.Contains(s.String(), want) {
			t.Errorf("%s = %s, want ~%q", sig, s, want)
		}
	}
	// idivl must also deliver the remainder in %edx.
	_, s := findSem(d, "idivl")
	if s == nil || s.Outs["r%edx"] == nil || !strings.Contains(s.Outs["r%edx"].String(), "mod") {
		t.Errorf("idivl remainder not discovered: %v", s)
	}
}

func TestSPARCSemantics(t *testing.T) {
	d := discover(t, sparc.New())
	// The software multiply: call .mul must read %o0/%o1 and define %o0
	// with mul (Fig. 15e).
	var mulSem *sem.Sem
	for sig, s := range d.Ext.Sems {
		if strings.Contains(sig, ".mul") {
			mulSem = s
		}
	}
	if mulSem == nil {
		t.Fatalf("call .mul semantics not discovered; sems: %v", d.Report())
	}
	out := mulSem.Outs["r%o0"]
	if out == nil || !strings.Contains(out.String(), "mul(") {
		t.Errorf("call .mul = %v, want mul over %%o0/%%o1", mulSem)
	}
}

func TestMIPSSemantics(t *testing.T) {
	d := discover(t, mips.New())
	// div writes the quotient and remainder to the hidden lo/hi channels,
	// read by mflo and mfhi respectively.
	sig, s := findSem(d, "div")
	if s == nil || s.Outs["h.mflo"] == nil || !strings.Contains(s.Outs["h.mflo"].String(), "div(") {
		t.Errorf("div = %s %v, want hidden quotient for mflo", sig, s)
	}
	if s == nil || s.Outs["h.mfhi"] == nil || !strings.Contains(s.Outs["h.mfhi"].String(), "mod(") {
		t.Errorf("div = %s %v, want hidden remainder for mfhi", sig, s)
	}
	_, mflo := findSem(d, "mflo")
	if mflo == nil {
		t.Errorf("mflo not discovered")
	}
}

func TestVAXSemantics(t *testing.T) {
	d := discover(t, vax.New())
	// The one-instruction memory-to-memory add (Fig. 3).
	_, s := findSem(d, "addl3")
	if s == nil || !strings.Contains(s.String(), "add(") {
		t.Errorf("addl3 = %v, want add of two loads", s)
	}
	// bicl3 is and-with-complement.
	_, bic := findSem(d, "bicl3")
	if bic == nil || !strings.Contains(bic.String(), "not(") {
		t.Errorf("bicl3 = %v, want and/not composition", bic)
	}
	// ashl (sign-directed shift) is beyond the Fig. 14 primitives for
	// variable counts; the constant-count shift samples must still solve
	// (ashl $3, x, y is a plain shift).
}

func TestAlphaSemantics(t *testing.T) {
	d := discover(t, alpha.New())
	// cmplt and its consuming branch admit a boolean-inversion symmetry:
	// (isLT, isNE) and (isGE, isEQ) are observationally identical in the
	// sample language, and either pair generates correct code. Require a
	// relation-of-comparison shape.
	_, s := findSem(d, "cmplt")
	if s == nil || !strings.Contains(s.String(), "(compare(") {
		t.Errorf("cmplt = %v, want isREL(compare(...))", s)
	}
	_, bne := findSem(d, "bne")
	if bne == nil || bne.Cond == nil {
		t.Errorf("bne = %v, want conditional branch", bne)
	}
}

func TestCostAccounting(t *testing.T) {
	d := discover(t, x86.New())
	st := d.Rig.Stats()
	if st.Compiles == 0 || st.Assemblies == 0 || st.Executions == 0 || st.Mutations == 0 {
		t.Errorf("implausible stats: %v", st)
	}
	// Every mutant run is tallied under exactly one analysis.
	runs := int64(0)
	for _, an := range mutate.AnalysisNames {
		runs += d.Trace.Counter(mutate.RunsCounter(an))
	}
	if runs != int64(st.Mutations) {
		t.Errorf("per-analysis mutant runs sum to %d; want discovery.mutations = %d", runs, st.Mutations)
	}
	// A grouped analysis's joint mutant that breaks is followed by at
	// least one per-item probe, both tallied under that analysis; Report
	// prints the joints tried and the fallbacks.
	var line string
	for _, l := range strings.Split(d.Report(), "\n") {
		if strings.HasPrefix(l, "joint attempts/fallbacks:") {
			line = l + " "
		}
	}
	for _, an := range mutate.GroupedAnalyses {
		fb, runs := d.Trace.Counter(mutate.JointFallbackCounter(an)), d.Trace.Counter(mutate.RunsCounter(an))
		if fb < 0 || 2*fb > runs {
			t.Errorf("%s: %d joint fallbacks in %d mutant runs; each costs the joint mutant and a per-item probe", an, fb, runs)
		}
		tried := d.Trace.Counter(mutate.JointCounter(an))
		if tried < fb || tried > runs {
			t.Errorf("%s: %d joints tried, %d fell back, in %d mutant runs; want fallbacks <= joints <= runs", an, tried, fb, runs)
		}
		if want := fmt.Sprintf(" %s=%d/%d ", an, tried, fb); !strings.Contains(line, want) {
			t.Errorf("Report()'s joint attempts/fallbacks line %q lacks%q", line, want)
		}
	}
	// The likelihood heuristics must keep the search small (§5.2.2: "often
	// ... after just one or two tries").
	if st.CandidatesTried > 20000 {
		t.Errorf("search tried %d candidates; heuristics ineffective", st.CandidatesTried)
	}
}

// TestMachineFactsFromLexerRegions: the facts Discover learns before
// mutation analysis come from the regions the lexer extracted. At seeds 1
// and 2 on every target, dfg.BindSlots must bind what the binding rule
// gives on the analyzed regions, Model.Frame must be the base registers of
// each of the three slots, and the const and move regions that the writer
// search and the hardwired probe read must be the analyzed ones.
func TestMachineFactsFromLexerRegions(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, tt := range gauntletTargets {
			d, err := Discover(tt.ctor(), Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", tt.arch, seed, err)
			}
			got, err := dfg.BindSlots(d.Samples)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tt.arch, seed, err)
			}
			if want := analyzedSlots(d); got != want || d.Slots != want {
				t.Errorf("%s seed %d: BindSlots %+v, Discover %+v, analyzed regions %+v", tt.arch, seed, got, d.Slots, want)
			}
			for _, slot := range []string{d.Slots.A, d.Slots.B, d.Slots.C} {
				if base := lexer.ClassifyText(d.Model, slot).Regs; len(base) == 0 || !slices.Equal(d.Model.Frame, base) {
					t.Errorf("%s seed %d: Model.Frame %v, slot %s has base registers %v", tt.arch, seed, d.Model.Frame, slot, base)
				}
			}
			for _, s := range d.Samples {
				if a := d.Analyses[s.Name]; (s.Name == "int.const.34117" || s.Name == "int.move.b") && !reflect.DeepEqual(a.Region, s.Region) {
					t.Errorf("%s seed %d: %s analyzed region %v, lexer region %v", tt.arch, seed, s.Name, a.Region, s.Region)
				}
			}
		}
	}
}

// analyzedSlots binds the variables' slots as Discover did when it read
// the analyzed regions: the first analyzed constant sample with a unique
// memory operand gives a, the move sample adds b, the add sample adds c.
func analyzedSlots(d *Discovery) dfg.Slots {
	memOps := func(name string) []string {
		a, ok := d.Analyses[name]
		if !ok {
			return nil
		}
		var out []string
		for i, ins := range a.Region {
			for _, arg := range ins.Args {
				if a.Filler[i] || arg.Kind != discovery.KMem && arg.Kind != discovery.KSym {
					continue
				}
				if t := dfg.NormalizeAddr(arg.Text); !slices.Contains(out, t) {
					out = append(out, t)
				}
			}
		}
		return out
	}
	var slots dfg.Slots
	for _, s := range d.Samples {
		if ops := memOps(s.Name); s.Kind == discovery.PConst && len(ops) == 1 {
			slots.A = ops[0]
			break
		}
	}
	for _, t := range memOps("int.move.b") {
		if t != slots.A {
			slots.B = t
		}
	}
	for _, t := range memOps("int.add.b_c") {
		if t != slots.A && t != slots.B {
			slots.C = t
		}
	}
	return slots
}
