package mutate

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestAttributionSkipsMatchProbes: on every quick and full sample of the
// five targets at seeds 1-3, attribution must learn from each analyzed
// sample's liveness profile the Reads, Defs and UseDefs that the literal
// engine's attribution learns on the same profile, which also probes the
// boundary after the last reader and repairs intervals live at one
// boundary, and it must spend fewer mutants doing so. The literal engine
// runs on a rig and seed of its own, so it draws other clobber values.
func TestAttributionSkipsMatchProbes(t *testing.T) {
	for _, tc := range []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()} {
		t.Run(tc.Name(), func(t *testing.T) {
			var prod, lit int64
			for _, full := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					e, samples := setupSet(t, tc, gen.Config{Rand: rand.New(rand.NewSource(seed)), Full: full})
					o := literalEngine(e, seed)
					for _, n := range sortedKeys(samples) {
						if a, err := e.Analyze(samples[n]); err == nil {
							matchAttribution(t, fmt.Sprintf("%s (seed %d, full %v)", n, seed, full), o, a)
						}
					}
					prod += runsOf(e, anAttribute)
					lit += runsOf(o, anAttribute)
				}
			}
			if prod >= lit {
				t.Errorf("attribute runs %d; the literal engine's %d on the same profiles; want fewer", prod, lit)
			}
		})
	}
}

// TestFindRepair pins which definitions findRepair copies. Discovery only
// meets one-instruction, unslotted definitions whose register operands
// are the defined register alone, so hand-built regions cover the
// refusals, which must run no mutant: the copy of an x86 frame load is
// accepted; int.shr.b_b's shift is refused because it reads %ecx, although
// its copy would hold, since every valuation prints 0; the same frame load
// is refused once it shares a two-instruction group; and a sparc call,
// delay-slotted, is refused, grouped with its slot or alone.
func TestFindRepair(t *testing.T) {
	reg := func(r string) discovery.Operand {
		return discovery.Operand{Text: r, Kind: discovery.KReg, Regs: []string{r}}
	}
	frame := func(off int64) discovery.Operand {
		return discovery.Operand{Text: fmt.Sprintf("%d(%%ebp)", off), Kind: discovery.KMem, Regs: []string{"%ebp"}, Lit: off}
	}
	var e *Engine
	refuses := func(a *Analysis, reg string, defGroup int) {
		t.Helper()
		before := e.Rig.Trace().Counter(discovery.CtrMutations)
		if got, ok := e.findRepair(a, reg, defGroup, defGroup+1); ok {
			t.Errorf("%s: findRepair copied %q out of\n%s", a.Sample.Name, got.Text(), describe(a.Region))
		}
		if n := e.Rig.Trace().Counter(discovery.CtrMutations) - before; n != 0 {
			t.Errorf("%s: findRepair ran %d mutants before refusing group %d", a.Sample.Name, n, defGroup)
		}
	}
	e, samples := setupSet(t, x86.New(), gen.Config{Rand: rand.New(rand.NewSource(1)), Full: true})
	load := discovery.Instr{Labels: []string{".L9"}, Op: "movl", Args: []discovery.Operand{frame(-8), reg("%edx")}}
	add := &Analysis{
		Sample: samples["int.add.b_c"],
		Region: []discovery.Instr{
			load,
			{Op: "movl", Args: []discovery.Operand{frame(-12), reg("%eax")}},
			{Op: "addl", Args: []discovery.Operand{reg("%eax"), reg("%edx")}},
			{Op: "movl", Args: []discovery.Operand{reg("%edx"), frame(-4)}},
		},
		Slotted: map[int]bool{},
	}
	add.rebuildGroups()
	if !e.SameOutput(add.Sample, add.Region) {
		t.Fatalf("the hand-built region does not compute b + c:\n%s", describe(add.Region))
	}
	load.Labels = nil
	if got, ok := e.findRepair(add, "%edx", 0, 1); !ok || got.Text() != load.Text() {
		t.Errorf("findRepair(frame load) = %q, %v; want its unlabeled copy %q", got.Text(), ok, load.Text())
	}
	add.Groups = [][2]int{{0, 2}, {2, 3}, {3, 4}}
	refuses(add, "%edx", 0)

	s := samples["int.shr.b_b"]
	shr := &Analysis{Sample: s, Region: s.CloneRegion(), Slotted: map[int]bool{}}
	shr.rebuildGroups()
	want := " 0: movl -8(%ebp), %edx\n 1: movl -8(%ebp), %ecx\n 2: sarl %ecx, %edx\n 3: movl %edx, -4(%ebp)\n"
	if got := describe(shr.Region); got != want {
		t.Fatalf("int.shr.b_b's region is\n%swant\n%s", got, want)
	}
	if !e.SameOutput(s, shr.insertAtGroup(3, shr.Region[2])) {
		t.Fatalf("int.shr.b_b's shift, run twice, does not print 0 on every valuation")
	}
	refuses(shr, "%edx", 2)

	e, samples = setup(t, sparc.New())
	call := analyze(t, e, samples["int.call.b"])
	g := slices.IndexFunc(call.Groups, func(span [2]int) bool { return call.Slotted[span[0]] })
	if g < 0 || !slices.Contains(call.Defs["%o0"], g) {
		t.Fatalf("int.call.b has no delay-slotted definition of %%o0:\n%s", describe(call.Region))
	}
	refuses(call, "%o0", g)
	// Cut after the call, whose slot then lies past the region's end, the
	// call is a group of its own.
	cut := &Analysis{Sample: call.Sample, Region: call.Region[:call.Groups[g][0]+1], Slotted: call.Slotted}
	cut.rebuildGroups()
	refuses(cut, "%o0", g)
}
