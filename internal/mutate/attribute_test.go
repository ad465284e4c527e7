package mutate

import (
	"fmt"
	"math/rand"
	"reflect"
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

// probeAllAttribute is attribute without the verdicts it takes from the
// scan's profile: the redefinition walk also probes the boundary after
// the last reader, and every interval with a definition finds a repair,
// also one live at a single boundary. It records the facts on a and
// returns how many probes it ran after the last reader and how many of
// them broke.
func probeAllAttribute(e *Engine, a *Analysis, reg string, live []bool) (endProbes, endBreaks int) {
	n := len(a.Groups)
	markRead := func(g int) { a.Reads[reg] = appendUnique(a.Reads[reg], g) }
	markDef := func(g int) { a.Defs[reg] = appendUnique(a.Defs[reg], g) }
	for start := 0; start <= n; start++ {
		if !live[start] || (start > 0 && live[start-1]) {
			continue
		}
		end := start
		for end < n && live[end+1] {
			end++
		}
		defGroup := -1
		if start > 0 {
			defGroup = start - 1
			markDef(defGroup)
		}
		if end < n {
			markRead(end)
		}
		if defGroup < 0 {
			continue
		}
		repair, ok := e.findRepair(a, reg, defGroup, start)
		if !ok {
			continue
		}
		redefAt := -1
		for g := start; g <= end && end < n; g++ {
			broke := !e.SameOutput(a.Sample, a.insertAtGroup(g+1, repair))
			if g == end {
				endProbes++
				if broke {
					endBreaks++
				}
			}
			if broke {
				redefAt = g
				break
			}
		}
		if redefAt >= 0 {
			markDef(redefAt)
			if live[redefAt] {
				a.UseDefs[reg] = appendUnique(a.UseDefs[reg], redefAt)
				markRead(redefAt)
			}
		}
		limit := end
		if redefAt >= 0 {
			limit = redefAt
		}
		for g := start; g < limit; g++ {
			r := e.clobberValues(1)[0]
			for _, k := range []int64{fixedClobber, -fixedClobber, r} {
				withClobber := a.insertAtGroup(g, e.ClobberInstr(reg, k))
				pos := len(withClobber)
				if g+1 < len(a.Groups) {
					pos = a.Groups[g+1][0] + 1
				}
				if !e.SameOutput(a.Sample, Insert(withClobber, pos, repair)) {
					markRead(g)
					break
				}
			}
		}
	}
	return endProbes, endBreaks
}

// TestAttributionSkipsMatchProbes: on every quick and full sample of the
// five targets at seeds 1-3, attribution must learn from each analyzed
// sample's liveness profile the Reads, Defs and UseDefs that
// probeAllAttribute learns probing what the profile decides, and none of
// the latter's probes after the last reader may break. The reference runs
// on an engine of its own, so the analyses draw the clobber values a
// discovery draws.
func TestAttributionSkipsMatchProbes(t *testing.T) {
	endProbes := 0
	for _, tc := range []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()} {
		t.Run(tc.Name(), func(t *testing.T) {
			for _, full := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					e, samples := setupSet(t, tc, gen.Config{Rand: rand.New(rand.NewSource(seed)), Full: full})
					ref := New(e.Rig, e.Model, rand.New(rand.NewSource(seed)))
					names := make([]string, 0, len(samples))
					for n := range samples {
						names = append(names, n)
					}
					slices.Sort(names)
					for _, n := range names {
						a, err := e.Analyze(samples[n])
						if err != nil {
							continue
						}
						n := fmt.Sprintf("%s (seed %d, full %v)", n, seed, full)
						want := &Analysis{
							Sample: a.Sample, Region: a.Region, Filler: a.Filler, Slotted: a.Slotted, Groups: a.Groups,
							Reads: map[string][]int{}, Defs: map[string][]int{}, UseDefs: map[string][]int{},
						}
						for _, reg := range ref.studiedRegisters(a.Region) {
							live := a.Live[reg]
							if !slices.Contains(live, false) {
								continue // scanRegisters attributes no register live everywhere
							}
							probes, breaks := probeAllAttribute(ref, want, reg, live)
							endProbes += probes
							if breaks > 0 {
								t.Errorf("%s: %s: %d repairs after the last reader broke:\n%s", n, reg, breaks, describe(a.Region))
							}
						}
						for _, f := range []struct {
							field     string
							got, want map[string][]int
						}{
							{"Reads", a.Reads, want.Reads},
							{"Defs", a.Defs, want.Defs},
							{"UseDefs", a.UseDefs, want.UseDefs},
						} {
							if !reflect.DeepEqual(f.got, f.want) {
								t.Errorf("%s: %s = %v; probing every boundary gives %v", n, f.field, f.got, f.want)
							}
						}
					}
				}
			}
		})
	}
	if endProbes == 0 {
		t.Error("no interval ran a repair after its last reader; the skip went untested")
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
