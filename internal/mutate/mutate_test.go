package mutate

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"srcg/internal/asm"
	"srcg/internal/discovery"
	"srcg/internal/gen"
	"srcg/internal/lexer"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

// setup bootstraps a target and returns an engine plus the sample map.
func setup(t testing.TB, tc target.Toolchain) (*Engine, map[string]*discovery.Sample) {
	t.Helper()
	rig := discovery.NewRig(tc)
	samples, err := gen.Samples(gen.Config{Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	m, err := lexer.Bootstrap(rig, samples)
	if err != nil {
		t.Fatalf("Bootstrap(%s): %v", tc.Name(), err)
	}
	byName := map[string]*discovery.Sample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	return New(rig, m, rand.New(rand.NewSource(9))), byName
}

func analyze(t *testing.T, e *Engine, s *discovery.Sample) *Analysis {
	t.Helper()
	a, err := e.Analyze(s)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", s.Name, err)
	}
	return a
}

// TestBaselineRunsFullQuorum: a baseline is never settled by the one-run
// expect shortcut: it spends one 2-run quorum on the image that runs every
// valuation. An assumed baseline covers exactly one sample: its check
// makes no toolchain call, while another sample's still runs the quorum.
func TestBaselineRunsFullQuorum(t *testing.T) {
	e, samples := setup(t, x86.New())
	s, other := samples["int.add.b_c"], samples["int.sub.b_c"]
	checkQuorum := func(s *discovery.Sample) {
		t.Helper()
		before := e.Rig.ProbeStats()
		links := e.Rig.Stats().Links
		if err := e.CheckBaseline(s); err != nil {
			t.Fatal(err)
		}
		after := e.Rig.ProbeStats()
		if runs := after.QuorumRuns - before.QuorumRuns; runs != 2 || after.ExpectAccepts != before.ExpectAccepts {
			t.Errorf("%s baseline spent %d runs, %d expect accepts; want the 2-run quorum, none",
				s.Name, runs, after.ExpectAccepts-before.ExpectAccepts)
		}
		if n := e.Rig.Stats().Links - links; n != 1 {
			t.Errorf("%s baseline linked %d images; want one for its %d valuations", s.Name, n, s.NumValuations())
		}
	}
	checkQuorum(s)
	e.AssumeBaseline(s)
	before := e.Rig.ProbeStats().Attempts
	if err := e.CheckBaseline(s); err != nil {
		t.Fatal(err)
	}
	if got := e.Rig.ProbeStats().Attempts; got != before {
		t.Errorf("an assumed baseline made %d toolchain calls; want 0", got-before)
	}
	checkQuorum(other)
}

// textCounter counts how often the assembler sees each text, and the
// executions.
type textCounter struct {
	target.Toolchain
	texts map[string]int
	execs int
}

func (c *textCounter) Assemble(text string) (*asm.Unit, error) {
	c.texts[text]++
	return c.Toolchain.Assemble(text)
}

func (c *textCounter) Execute(img *asm.Image) (string, error) {
	c.execs++
	return c.Toolchain.Execute(img)
}

// TestOneAssemblyPerMutant: a mutant's text does not depend on the
// valuation, which lives in its own initializer unit, so the engine
// assembles each mutant once, and a check of every valuation links and
// runs it once, with the initializer that hands out all valuations.
func TestOneAssemblyPerMutant(t *testing.T) {
	tc := &textCounter{Toolchain: x86.New(), texts: map[string]int{}}
	e, samples := setup(t, tc)
	s := samples["int.add.b_c"]
	v := s.NumValuations()
	if v < 2 {
		t.Fatalf("%s has %d valuations; the test needs several", s.Name, v)
	}
	cost := func(what string, assemblies, links, mutations int, f func()) {
		t.Helper()
		before := e.Rig.Stats()
		f()
		after := e.Rig.Stats()
		got := [3]int{after.Assemblies - before.Assemblies, after.Links - before.Links, after.Mutations - before.Mutations}
		if want := [3]int{assemblies, links, mutations}; got != want {
			t.Errorf("%s cost %d assemblies, %d links, %d mutations; want %v", what, got[0], got[1], got[2], want)
		}
	}
	// The first check also assembles the batched initializer and the
	// helpers, once per engine; every later check reuses them.
	if !e.SameOutput(s, s.Region) {
		t.Fatal("the unmutated sample does not reproduce its output")
	}
	cost("a passing SameOutput", 1, 1, 1, func() {
		if !e.SameOutput(s, Insert(s.Region, 0, e.ClobberInstr("%edi", 5))) {
			t.Error("clobbering an unused register changed the output")
		}
	})
	cost("a rejected mutant", 1, 0, 1, func() {
		if e.SameOutput(s, Insert(s.Region, 0, discovery.Instr{Op: "bogus"})) {
			t.Error("a mutant the assembler rejects reproduced the output")
		}
	})

	base := s.Rebuild(s.Region)
	before := tc.texts[base]
	a := analyze(t, e, s)
	if n := tc.texts[base] - before; n != 1 {
		t.Errorf("Analyze assembled the unmutated sample %d times; want once for all %d valuations", n, v)
	}

	// FindMemWriter assembles each (position, constant) probe once for
	// every valuation it runs under. The probe prints a constant it
	// planted itself, so on a clean rig a hit settles in one execute and
	// only a miss runs the 2-run quorum.
	constA := analyze(t, e, samples["int.const.34117"])
	tc.texts = map[string]int{}
	stats, probes, execs := e.Rig.Stats(), e.Rig.ProbeStats(), tc.execs
	e.FindMemWriter(a, constA.Region, 34117)
	if a.AWriter < 0 {
		t.Errorf("no output-cell writer found:\n%s", describe(a.Region))
	}
	repeated := 0
	for _, n := range tc.texts {
		if n != 1 {
			repeated++
		}
	}
	if repeated > 0 {
		t.Errorf("FindMemWriter assembled %d of its %d probes more than once; want each once for all %d valuations",
			repeated, len(tc.texts), v)
	}
	runs := e.Rig.Stats().Executions - stats.Executions
	hits := e.Rig.ProbeStats().ExpectAccepts - probes.ExpectAccepts
	if got, want := tc.execs-execs, hits+2*(runs-hits); hits == 0 || got != want {
		t.Errorf("FindMemWriter's %d runs settled %d hits in one execute and spent %d executes; want hits settled alone, %d executes",
			runs, hits, got, want)
	}
}

// clobberStarts counts the assemblies in texts that clobber one of
// region's registers at region start and leave the region intact: the
// probes a clobber-safe set computation on region makes.
func clobberStarts(e *Engine, s *discovery.Sample, region []discovery.Instr, texts map[string]int) int {
	const mark = 987654321
	n := 0
	for _, r := range discovery.Registers(region) {
		pre, post, _ := strings.Cut(s.Rebuild(Insert(region, 0, e.ClobberInstr(r, mark))), strconv.Itoa(mark))
		for text, c := range texts {
			k, ok := strings.CutPrefix(text, pre)
			if k, ok = strings.CutSuffix(k, post); ok {
				if _, err := strconv.ParseInt(k, 10, 64); err == nil {
					n += c
				}
			}
		}
	}
	return n
}

// TestSafeSetOncePerRegionState: the Fig. 6 clobber-safe set depends on
// the region alone, so redundant-instruction elimination computes it once
// before its first candidate and again only after a deletion succeeds.
func TestSafeSetOncePerRegionState(t *testing.T) {
	tc := &textCounter{Toolchain: x86.New(), texts: map[string]int{}}
	e, samples := setup(t, tc)
	s := samples["int.add.b_c"]
	// One computation's cost in region-start clobber assemblies: the
	// verdicts are fixed on a clean rig, so every computation on the same
	// region costs the same.
	unit := func(region []discovery.Instr) int {
		tc.texts = map[string]int{}
		e.safeClobberRegs(s, region)
		return clobberStarts(e, s, region, tc.texts)
	}
	eliminate := func(region []discovery.Instr) *Analysis {
		tc.texts = map[string]int{}
		a := &Analysis{Sample: s, Region: region, Filler: map[int]bool{}, Slotted: map[int]bool{}}
		e.eliminateRedundant(a)
		return a
	}

	one := unit(s.Region)
	if one == 0 {
		t.Fatalf("%s has no registers to clobber", s.Name)
	}
	if a := eliminate(s.CloneRegion()); len(a.Removed) != 0 {
		t.Fatalf("%s lost %d instructions; the test needs a region without redundancy", s.Name, len(a.Removed))
	}
	if got := clobberStarts(e, s, s.Region, tc.texts); got != one {
		t.Errorf("no deletion: %d region-start clobber assemblies; want %d, one safe-set computation", got, one)
	}

	// A clobber of a register the region never mentions is redundant:
	// its deletion is forced, and the safe set is recomputed once after it.
	padded := Insert(s.Region, 0, e.ClobberInstr("%edi", 5))
	onePadded := unit(padded)
	a := eliminate(padded)
	if len(a.Removed) != 1 || !eq(ops(a.Region), ops(s.Region)) {
		t.Fatalf("eliminating %v left %v; want the inserted clobber deleted alone", ops(padded), ops(a.Region))
	}
	if got, want := clobberStarts(e, s, padded, tc.texts)+clobberStarts(e, s, s.Region, tc.texts), onePadded+one; got != want {
		t.Errorf("one deletion: %d region-start clobber assemblies; want %d, two safe-set computations", got, want)
	}
}

func TestAlphaRedundantElimination(t *testing.T) {
	// Fig. 6: the canonicalizing addl $n,0,$n after the operation is
	// observationally redundant and must be eliminated; the copy
	// addl $a,0,$b (a move) must survive.
	e, samples := setup(t, alpha.New())
	a := analyze(t, e, samples["int.shl.b_c"])
	if len(a.Removed) == 0 {
		t.Fatalf("no redundant instructions found:\n%s", describe(a.Region))
	}
	for _, ins := range a.Region {
		if ins.Op == "addl" && len(ins.Args) == 3 &&
			ins.Args[1].Kind == discovery.KLit && ins.Args[1].Lit == 0 &&
			ins.Args[0].Text == ins.Args[2].Text {
			t.Errorf("redundant addl %s,0,%s survived:\n%s", ins.Args[0].Text, ins.Args[2].Text, describe(a.Region))
		}
	}
}

func TestX86ImplicitArgsOfDivision(t *testing.T) {
	// Fig. 8 / Fig. 10(d): cltd reads %eax and defines %edx; idivl reads
	// and defines %eax (use-def) and reads %edx.
	e, samples := setup(t, x86.New())
	a := analyze(t, e, samples["int.div.b_c"])

	var cltdG, idivG = -1, -1
	for g := range a.Groups {
		switch a.GroupInstr(g).Op {
		case "cltd":
			cltdG = g
		case "idivl":
			idivG = g
		}
	}
	if cltdG < 0 || idivG < 0 {
		t.Fatalf("region missing cltd/idivl:\n%s", describe(a.Region))
	}
	if !containsInt(a.Reads["%eax"], cltdG) {
		t.Errorf("cltd not detected as implicit reader of %%eax: reads=%v", a.Reads["%eax"])
	}
	if !containsInt(a.Defs["%edx"], cltdG) {
		t.Errorf("cltd not detected as implicit definer of %%edx: defs=%v", a.Defs["%edx"])
	}
	if !containsInt(a.Reads["%eax"], idivG) {
		t.Errorf("idivl not detected as reader of %%eax: reads=%v", a.Reads["%eax"])
	}
	if !containsInt(a.Defs["%eax"], idivG) {
		t.Errorf("idivl not detected as definer of %%eax: defs=%v", a.Defs["%eax"])
	}
	if !containsInt(a.Reads["%edx"], idivG) {
		t.Errorf("idivl not detected as reader of %%edx: reads=%v", a.Reads["%edx"])
	}
	if !containsInt(a.UseDefs["%eax"], idivG) {
		t.Errorf("idivl %%eax not classified use-def: %v", a.UseDefs["%eax"])
	}
}

func TestX86ModRevealsEdxDef(t *testing.T) {
	// In the remainder sample the %edx consumer after idivl exposes that
	// idivl defines %edx.
	e, samples := setup(t, x86.New())
	a := analyze(t, e, samples["int.mod.b_c"])
	var idivG = -1
	for g := range a.Groups {
		if a.GroupInstr(g).Op == "idivl" {
			idivG = g
		}
	}
	if idivG < 0 {
		t.Fatalf("missing idivl:\n%s", describe(a.Region))
	}
	if !containsInt(a.Defs["%edx"], idivG) {
		t.Errorf("idivl not detected as definer of %%edx: defs=%v", a.Defs["%edx"])
	}
}

func TestSPARCDelaySlotNormalization(t *testing.T) {
	// Fig. 4(c): the argument move rides in the call's delay slot; the
	// Preprocessor must normalize it to slot-free order.
	e, samples := setup(t, sparc.New())
	a := analyze(t, e, samples["int.mul.b_c"])
	var callIdx = -1
	for i, ins := range a.Region {
		if ins.Op == "call" {
			callIdx = i
		}
	}
	if callIdx < 0 {
		t.Fatalf("no call in region:\n%s", describe(a.Region))
	}
	if !a.Slotted[callIdx] {
		t.Errorf("call not marked delay-slotted:\n%s", describe(a.Region))
	}
	if !a.Filler[callIdx+1] {
		t.Errorf("slot not filled with inert instruction:\n%s", describe(a.Region))
	}
	// After normalization both argument moves precede the call.
	for i := 0; i < callIdx; i++ {
		if a.Region[i].Op == "call" {
			t.Errorf("unexpected earlier call")
		}
	}
}

func TestSPARCCallImplicitArgs(t *testing.T) {
	// Fig. 4(a)/Fig. 15(e): the call to .mul implicitly reads %o0, %o1 and
	// implicitly defines %o0.
	e, samples := setup(t, sparc.New())
	a := analyze(t, e, samples["int.mul.b_c"])
	var callG = -1
	for g := range a.Groups {
		if a.GroupInstr(g).Op == "call" {
			callG = g
		}
	}
	if callG < 0 {
		t.Fatalf("no call group:\n%s", describe(a.Region))
	}
	if !containsInt(a.Reads["%o0"], callG) {
		t.Errorf("call not reading %%o0: %v", a.Reads["%o0"])
	}
	if !containsInt(a.Reads["%o1"], callG) {
		t.Errorf("call not reading %%o1: %v", a.Reads["%o1"])
	}
	if !containsInt(a.Defs["%o0"], callG) {
		t.Errorf("call not defining %%o0: %v", a.Defs["%o0"])
	}
}

func TestMIPSHiddenChannel(t *testing.T) {
	// §7.1: div and mflo communicate through the hidden lo register.
	e, samples := setup(t, mips.New())
	a := analyze(t, e, samples["int.div.b_c"])
	var divG, mfloG = -1, -1
	for g := range a.Groups {
		switch a.GroupInstr(g).Op {
		case "div":
			divG = g
		case "mflo":
			mfloG = g
		}
	}
	if divG < 0 || mfloG < 0 {
		t.Fatalf("missing div/mflo:\n%s", describe(a.Region))
	}
	var found bool
	for _, h := range a.Hidden {
		if h.From == divG && h.To == mfloG {
			found = true
		}
	}
	if !found {
		t.Errorf("hidden div→mflo channel not detected: %v", a.Hidden)
	}
}

func TestX86LiveRangeSplitting(t *testing.T) {
	// Fig. 4(b)/Fig. 7: the two-argument call stages both arguments
	// through %eax; splitting must find the two staging ranges plus the
	// result-extraction range (invalid: its definition is implicit).
	e, samples := setup(t, x86.New())
	a := analyze(t, e, samples["int.call.b_c"])
	ranges := e.SplitLiveRanges(a, "%eax")
	if len(ranges) != 3 {
		t.Fatalf("ranges = %d, want 3:\n%s%v", len(ranges), describe(a.Region), ranges)
	}
	if !ranges[0].Valid || !ranges[1].Valid {
		t.Errorf("staging ranges should validate: %+v", ranges)
	}
	if ranges[2].Valid {
		t.Errorf("result range has an implicit definition and must not validate: %+v", ranges[2])
	}
}

func TestX86UseDefClassification(t *testing.T) {
	// Fig. 9: movl -8(%ebp),%edx (def); imull -12(%ebp),%edx (use-def);
	// movl %edx,-4(%ebp) (use).
	e, samples := setup(t, x86.New())
	a := analyze(t, e, samples["int.mul.b_c"])
	ranges := e.SplitLiveRanges(a, "%edx")
	if len(ranges) != 1 {
		t.Fatalf("ranges = %v, want one", ranges)
	}
	uses := e.ClassifyRefs(a, ranges[0])
	want := []discovery.RegUse{discovery.DefPure, discovery.UseDef, discovery.UsePure}
	if len(uses) != len(want) {
		t.Fatalf("classification = %v, want %v\n%s", uses, want, describe(a.Region))
	}
	for i := range want {
		if uses[i] != want[i] {
			t.Errorf("ref %d = %v, want %v", i, uses[i], want[i])
		}
	}
}

func TestVAXMemoryToMemoryAnalyzes(t *testing.T) {
	// A region with no registers at all must still analyze cleanly.
	e, samples := setup(t, vax.New())
	a := analyze(t, e, samples["int.add.b_c"])
	if len(a.Region) != 1 {
		t.Errorf("region = %v", a.Region)
	}
	if len(a.Hidden) != 0 {
		t.Errorf("unexpected hidden channels: %v", a.Hidden)
	}
}

func TestConditionalSampleAnalyzes(t *testing.T) {
	for _, tc := range []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()} {
		e, samples := setup(t, tc)
		if _, err := e.Analyze(samples["int.cond.lt.lt"]); err != nil {
			t.Errorf("%s: %v", tc.Name(), err)
		}
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestVariantsPreventDeadCodeElimination documents why samples carry
// several hidden-value valuations: under a single valuation the guarded
// store of a conditional sample is dead on one side and the branch on the
// other, so redundant-instruction elimination would eat them; a valuation
// that flips the branch keeps both alive.
func TestVariantsPreventDeadCodeElimination(t *testing.T) {
	e, samples := setup(t, x86.New())
	s := samples["int.cond.lt.lt"]

	stripped := *s
	stripped.Variants = nil
	stripped.Name = s.Name + ".novariants"
	aStripped, err := e.Analyze(&stripped)
	if err != nil {
		t.Fatal(err)
	}
	aFull, err := e.Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(aStripped.Removed) <= len(aFull.Removed) {
		t.Errorf("without variants the dead side should be eliminated: removed %d (stripped) vs %d (full)",
			len(aStripped.Removed), len(aFull.Removed))
	}
	// With variants, the branch must survive.
	var hasBranch bool
	for _, ins := range aFull.Region {
		for _, arg := range ins.Args {
			if arg.Kind == discovery.KLabelRef {
				hasBranch = true
			}
		}
	}
	if !hasBranch {
		t.Errorf("branch eliminated despite variants:\n%s", describe(aFull.Region))
	}
}

// BenchmarkSameOutput checks alpha's unmutated addition region under
// every valuation: one assembly, and one link and settling run of the
// image that runs them all, per op.
func BenchmarkSameOutput(b *testing.B) {
	e, samples := setup(b, alpha.New())
	s := samples["int.add.b_c"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.SameOutput(s, s.Region) {
			b.Fatal("the unmutated region must reproduce its output")
		}
	}
}

// BenchmarkSameOutputVal checks alpha's unmutated addition region under
// its base valuation: one assembly, link and settling run per op.
func BenchmarkSameOutputVal(b *testing.B) {
	e, samples := setup(b, alpha.New())
	s := samples["int.add.b_c"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.SameOutputVal(s, s.Region, 0) {
			b.Fatal("the unmutated region must reproduce its output")
		}
	}
}
