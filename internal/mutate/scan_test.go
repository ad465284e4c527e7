package mutate

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
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

// TestTextDeadBoundaries pins the boundaries the scan's first value
// group-tests: up to the first group that names the register and past the
// last. Every instruction of a group counts, the filler of a delay-slotted
// group included, and so does a register named only as a memory base.
func TestTextDeadBoundaries(t *testing.T) {
	reg := func(r string) discovery.Operand {
		return discovery.Operand{Text: r, Kind: discovery.KReg, Regs: []string{r}}
	}
	mem := func(text, base string) discovery.Operand {
		return discovery.Operand{Text: text, Kind: discovery.KMem, Regs: []string{base}}
	}
	lit := discovery.Operand{Text: "5", Kind: discovery.KLit, Lit: 5}
	a := &Analysis{
		Region: []discovery.Instr{
			{Op: "ld", Args: []discovery.Operand{mem("[%fp-8]", "%fp"), reg("%o0")}}, // group 0
			{Op: "mov", Args: []discovery.Operand{lit, reg("%o2")}},                  // group 1
			{Op: "call", Args: []discovery.Operand{{Text: ".mul", Kind: discovery.KSym, Sym: ".mul"}}},
			{Op: "set", Args: []discovery.Operand{lit, reg("%o2")}},                   // group 2's filler
			{Op: "st", Args: []discovery.Operand{reg("%o0"), mem("[%fp-12]", "%fp")}}, // group 3
		},
		Slotted: map[int]bool{2: true},
		Filler:  map[int]bool{3: true},
	}
	a.rebuildGroups()
	if len(a.Groups) != 4 {
		t.Fatalf("groups %v; want 4, the call and its filler as one", a.Groups)
	}
	for _, c := range []struct {
		reg  string
		want []int
	}{
		{"%o0", []int{0, 4}},
		{"%fp", []int{0, 4}},       // memory base only
		{"%o2", []int{0, 1, 3, 4}}, // the slot's filler is group 2's
		{"%o1", []int{0, 1, 2, 3, 4}},
	} {
		if got := a.textDead(c.reg); !slices.Equal(got, c.want) {
			t.Errorf("textDead(%s) = %v; want %v", c.reg, got, c.want)
		}
	}
}

// mispredicted are, per target, the registers of setup's samples that are
// live at a boundary the text predicts dead, as "sample register" mapped
// to their liveness at each boundary ('+' live). Past the last mention,
// calls read their argument registers and x86's cltd and idivl read %eax
// and %edx implicitly; before the first, calls, cltd and idivl define
// registers implicitly. Registers live at every boundary (frame pointers)
// are left out: their joint always breaks. The profiles are those of the
// scan that probed every boundary alone with the first value.
var mispredicted = map[string]map[string]string{
	"x86": {
		"int.call.none %eax": "-+-",
		"int.div.b_c %edx":   "--+-+-",
		"int.mod.b_c %eax":   "-++--",
		"int.mod.b_c %edx":   "--++-",
	},
	"sparc": {
		"int.call.b_c %o1":  "--+--",
		"int.call.none %o0": "--+-",
		"int.div.b_c %o1":   "--+--",
		"int.mod.b_c %o1":   "--+--",
		"int.mul.b_c %o1":   "--+--",
	},
	"mips": {
		"int.call.b $2":    "--+-",
		"int.call.b $4":    "-+--",
		"int.call.b_c $2":  "---+-",
		"int.call.b_c $4":  "-++--",
		"int.call.b_c $5":  "--+--",
		"int.call.none $2": "-+-",
	},
	"alpha": {
		"int.call.b $0":    "--+-",
		"int.call.b $16":   "-+--",
		"int.call.b_c $0":  "---+-",
		"int.call.b_c $16": "-++--",
		"int.call.b_c $17": "--+--",
		"int.call.none $0": "-+-",
	},
	"vax": {
		"int.call.b r0":    "--+-",
		"int.call.b_c r0":  "---+-",
		"int.call.none r0": "-+-",
	},
}

// TestTextMispredictionsComeBackLive: where the machine reads or writes a
// register the text does not name there, the text-predicted joint mutant
// breaks and the per-boundary fallback finds the live boundaries. On every
// sample of the five targets, the registers live at a predicted boundary
// must be exactly the mispredicted ones, with their liveness unchanged,
// and each must have cost its sample a scan fallback.
func TestTextMispredictionsComeBackLive(t *testing.T) {
	for _, tc := range []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()} {
		e, samples := setup(t, tc)
		names := sortedKeys(samples)
		got := map[string]string{}
		for _, n := range names {
			fallbacks := e.Rig.Trace().Counter(JointFallbackCounter(anScan))
			a, err := e.Analyze(samples[n])
			if err != nil {
				continue
			}
			missed := 0
			for reg, live := range a.Live {
				if !slices.Contains(live, false) {
					continue
				}
				if slices.ContainsFunc(a.textDead(reg), func(g int) bool { return live[g] }) {
					got[n+" "+reg] = profile(live)
					missed++
				}
			}
			if fell := e.Rig.Trace().Counter(JointFallbackCounter(anScan)) - fallbacks; fell < int64(missed) {
				t.Errorf("%s %s: %d registers mispredicted, %d scan fallbacks; want a fallback each", tc.Name(), n, missed, fell)
			}
		}
		if want := mispredicted[tc.Name()]; !maps.Equal(got, want) {
			t.Errorf("%s: live at a text-predicted boundary %v; want %v", tc.Name(), got, want)
		}
	}
}

// profile renders a liveness profile, '+' for live and '-' for dead.
func profile(live []bool) string {
	b := make([]byte, len(live))
	for g, l := range live {
		b[g] = '-'
		if l {
			b[g] = '+'
		}
	}
	return string(b)
}

// literalScan runs o's scan, which probes every register at every
// boundary alone, on the region a's scan ran on, and returns each
// register's liveness there.
func literalScan(o *Engine, a *Analysis) map[string][]bool {
	b := &Analysis{
		Sample: a.Sample, Region: a.Region, Filler: a.Filler, Slotted: a.Slotted, Groups: a.Groups,
		Live: map[string][]bool{}, Reads: map[string][]int{}, Defs: map[string][]int{}, UseDefs: map[string][]int{},
	}
	o.scanRegisters(b)
	return b.Live
}

// TestCrossScanMatchesPerRegister: on every quick and full sample of the
// five targets at seeds 1-3, the scan with its cross-register joint must
// find each studied register's liveness that the literal engine's scan
// finds on the same region, probing each register at each boundary alone
// with all three values. The literal engine runs on a rig and seed of its
// own, and so draws other random values. Samples whose valuations all
// print one output are skipped: the scan sends them no cross joint, and
// on them even the per-register verdict can change with the clobber
// values, since a clobber that happens to reproduce the one output passes
// for dead.
func TestCrossScanMatchesPerRegister(t *testing.T) {
	for _, tc := range []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()} {
		t.Run(tc.Name(), func(t *testing.T) {
			compared := 0
			for _, full := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					e, samples := setupSet(t, tc, gen.Config{Rand: rand.New(rand.NewSource(seed)), Full: full})
					o := literalEngine(e, seed)
					for _, n := range sortedKeys(samples) {
						s := samples[n]
						if !s.Sensitive() {
							continue
						}
						a, err := e.Analyze(s)
						if err != nil {
							continue
						}
						if len(a.Live) > 1 {
							compared++
						}
						want := literalScan(o, a)
						for _, reg := range sortedKeys(a.Live) {
							if live := a.Live[reg]; !slices.Equal(live, want[reg]) {
								t.Errorf("%s: %s live %v; the per-register scan finds %v",
									fmt.Sprintf("%s (seed %d, full %v)", n, seed, full), reg, live, want[reg])
							}
						}
					}
				}
			}
			if compared == 0 {
				t.Error("no sample studies two registers; the cross joint went untested")
			}
		})
	}
}

// TestInsensitiveSampleGetsNoCrossJoint: a sample whose valuations all
// print one output gets no cross-register joint. The same constant
// clobbered into two registers can cancel (x-x), and such a sample cannot
// tell the cancelled clobbers from dead ones. On a copy of int.sub.b_c
// whose valuations all print 0, and on one with its base valuation only,
// crossSafe sends nothing for two registers' clobbers, while on the
// sample itself it sends one joint; the flat copy's liveness must be the
// literal engine's.
func TestInsensitiveSampleGetsNoCrossJoint(t *testing.T) {
	e, samples := setup(t, mips.New())
	s := samples["int.sub.b_c"]
	if !s.Sensitive() {
		t.Fatalf("%s prints %q; want valuations that differ", s.Name, s.ExpectedOut)
	}
	// b - c is 0 under every valuation with b = c.
	flat := *s
	flat.Vals = nil
	for _, v := range s.Vals {
		v.C, v.Expect, v.ExpectedOut = v.B, 0, "0\n"
		flat.Vals = append(flat.Vals, v)
	}
	flat.InitSource, flat.ExpectedOut = gen.InitUnit(flat.Vals), strings.Repeat("0\n", len(flat.Vals))
	if flat.Sensitive() {
		t.Fatal("the hand-built sample's valuations print different outputs")
	}
	a := analyze(t, e, &flat)
	regs := sortedKeys(a.Live)
	if len(regs) < 2 {
		t.Fatalf("%s studies %v; the test needs two registers", s.Name, regs)
	}
	ins := [][]placed{
		{{0, e.ClobberInstr(regs[0], fixedClobber)}},
		{{0, e.ClobberInstr(regs[1], fixedClobber)}},
	}
	one := *s
	one.Vals = s.Vals[:1]
	for _, c := range []struct {
		s      *discovery.Sample
		joints int64
	}{{&flat, 0}, {&one, 0}, {s, 1}} {
		before := e.Rig.Trace().Counter(JointCounter(anScan))
		joint := e.crossSafe(c.s, a.Region, ins)
		if got := e.Rig.Trace().Counter(JointCounter(anScan)) - before; got != c.joints || c.joints == 0 && joint {
			t.Errorf("%s (sensitive %v): crossSafe = %v with %d joints; want %d", s.Name, c.s.Sensitive(), joint, got, c.joints)
		}
	}
	want := analyze(t, literalEngine(e, 1), &flat)
	for _, reg := range regs {
		if !slices.Equal(a.Live[reg], want.Live[reg]) {
			t.Errorf("%s with one output: %s live %v; the literal engine finds %v", s.Name, reg, a.Live[reg], want.Live[reg])
		}
	}
}
