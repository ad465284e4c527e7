package mutate

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"srcg/internal/asm"
	"srcg/internal/discovery"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

// jointBreaker rejects, while armed, every text holding a joint mutant:
// two or more clobbers of one register whose values are not known, two or
// more of one register with ±fixedClobber, clobbers of two or more
// registers ahead of an otherwise unmutated region, or, while the engine
// runs the liveness scan, clobbers of two or more registers with unknown
// or ±fixedClobber values. The known values are
// those a singleton probe or the region itself carries: the fixed clobber,
// the sample's own text, and its delay-slot fillers once the normalized
// region has been assembled. Before that, a filler's value is one of the
// delay analysis's joint filler values. Only a group test's clobbers are
// unknown twice, and only the scan's text-predicted group repeats the
// fixed clobber: attribution pairs it with a copy of the definition, never
// a second fixed one. Only the safe set's group test clobbers two or more registers ahead of
// a region it leaves otherwise intact: the region before elimination, or
// after a removal. A deletion mutant clobbers the safe set too, and the
// one that succeeds renders exactly the region after its removal, so
// such a text counts only while the engine computes the safe set.
type jointBreaker struct {
	target.Toolchain
	e          *Engine
	armed      bool
	pre        string // the text every mutant of the sample starts with
	normalized string // the sample's text after delay-slot normalization
	fillers    []int64
	known      map[int64]bool
	around     map[string][2]string // register -> its clobber line around the value
	plain      map[string]bool      // what follows pre in the texts of the regions the safe set studies
	broken     int
}

func (j *jointBreaker) Assemble(text string) (*asm.Unit, error) {
	if j.armed {
		if text == j.normalized {
			for _, v := range j.fillers {
				j.known[v] = true
			}
		}
		if j.joint(text) {
			j.broken++
			return nil, errors.New("joint mutant rejected")
		}
	}
	return j.Toolchain.Assemble(text)
}

// clobber parses line as a clobber instruction, returning its register
// and value.
func (j *jointBreaker) clobber(line string) (string, int64, bool) {
	for reg, ar := range j.around {
		k, ok := strings.CutPrefix(line, ar[0])
		if k, ok = strings.CutSuffix(k, ar[1]); ok {
			if v, err := strconv.ParseInt(k, 10, 64); err == nil {
				return reg, v, true
			}
		}
	}
	return "", 0, false
}

func (j *jointBreaker) joint(text string) bool {
	body, ok := strings.CutPrefix(text, j.pre)
	if !ok {
		return false // not a mutant: a valuation's initializer
	}
	if j.e.runs == RunsCounter(anSafeSet) && j.safeSetJoint(body) {
		return true
	}
	unknown, fixed, scanned := map[string]int{}, map[string]int{}, map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		reg, v, ok := j.clobber(line)
		if !ok {
			continue
		}
		if !j.known[v] {
			if unknown[reg]++; unknown[reg] > 1 {
				return true
			}
		}
		if v == fixedClobber || v == -fixedClobber {
			if fixed[reg]++; fixed[reg] > 1 {
				return true
			}
		}
		if !j.known[v] || v == fixedClobber || v == -fixedClobber {
			scanned[reg] = true
		}
	}
	return j.e.runs == RunsCounter(anScan) && len(scanned) > 1
}

// safeSetJoint reports whether body, what follows pre in a mutant's text,
// is a plain region's with clobbers of two or more registers ahead of it.
func (j *jointBreaker) safeSetJoint(body string) bool {
	rest, ok := strings.CutPrefix(body, "\n")
	regs := map[string]bool{}
	for ok {
		if len(regs) > 1 && j.plain["\n"+rest] {
			return true
		}
		var line string
		line, rest, ok = strings.Cut(rest, "\n")
		reg, _, clob := j.clobber(line)
		if !clob {
			return false
		}
		regs[reg] = true
	}
	return false
}

// arm makes j reject the joint mutants of an analysis of s, given an
// analysis of s that ran without j.
func (j *jointBreaker) arm(e *Engine, s *discovery.Sample, ref *Analysis) {
	if j.around == nil {
		const mark = 987654321
		j.around = map[string][2]string{}
		for _, r := range e.Model.Registers {
			pre, post, _ := strings.Cut(e.ClobberInstr(r, mark).Text(), strconv.Itoa(mark))
			j.around[r] = [2]string{pre, post}
		}
	}
	j.e = e
	j.pre = strings.Join(s.PreLines, "\n")
	j.normalized = s.Rebuild(ref.RegionPreElim)
	j.plain = map[string]bool{}
	region := ref.RegionPreElim
	for i := 0; ; i++ {
		j.plain[strings.TrimPrefix(s.Rebuild(region), j.pre)] = true
		if i == len(ref.Removed) {
			break
		}
		k := slices.IndexFunc(region, func(ins discovery.Instr) bool { return ins.Line == ref.Removed[i] })
		if k < 0 {
			break
		}
		region = Delete(region, k)
	}
	j.known = map[int64]bool{fixedClobber: true}
	for _, line := range strings.Split(s.Rebuild(s.Region), "\n") {
		if _, v, ok := j.clobber(line); ok {
			j.known[v] = true
		}
	}
	j.fillers = nil
	for i := range ref.Filler {
		if _, v, ok := j.clobber(ref.Region[i].Text()); ok {
			j.fillers = append(j.fillers, v)
		}
	}
	j.armed = true
}

// singletonRuns are the delay, safe-set and scan mutant runs, summed over
// every sample of setup analyzed in name order, that the three analyses
// spend probing per item: one probe per position, per (register, value)
// and per (register, boundary, value), each one image that runs every
// valuation. These are the runs of a discovery whose every joint mutant
// breaks, less its fallbacks.
var singletonRuns = map[string]int64{
	"x86": 941, "sparc": 1612, "mips": 1798, "alpha": 2449, "vax": 502,
}

// groupedRuns sums the mutant runs of the grouped analyses e has tallied
// and the joint mutants that fell back.
func groupedRuns(e *Engine) (runs, fallbacks int64) {
	tr := e.Rig.Trace()
	for _, an := range GroupedAnalyses {
		runs += tr.Counter(RunsCounter(an))
		fallbacks += tr.Counter(JointFallbackCounter(an))
	}
	return runs, fallbacks
}

// TestJointFallbackMatchesSingletons breaks every joint mutant, so each
// group test falls back to its per-item probes: the analysis must come out
// exactly as when the joint mutants run, at no more than the per-item
// probes' cost plus the one broken mutant each.
func TestJointFallbackMatchesSingletons(t *testing.T) {
	for _, ctor := range []func() target.Toolchain{
		func() target.Toolchain { return x86.New() },
		func() target.Toolchain { return sparc.New() },
		func() target.Toolchain { return mips.New() },
		func() target.Toolchain { return alpha.New() },
		func() target.Toolchain { return vax.New() },
	} {
		ref, samples := setup(t, ctor())
		jb := &jointBreaker{Toolchain: ctor()}
		e, _ := setup(t, jb)
		name := jb.Name()
		names := sortedKeys(samples)
		for _, n := range names {
			s := samples[n]
			want, err := ref.Analyze(s)
			if err != nil {
				continue
			}
			jb.arm(e, s, want)
			got, err := e.Analyze(s)
			jb.armed = false
			if err != nil {
				t.Errorf("%s %s: %v", name, n, err)
				continue
			}
			for _, f := range []struct {
				field     string
				got, want any
			}{
				{"Region", got.Region, want.Region},
				{"Slotted", got.Slotted, want.Slotted},
				{"Filler", got.Filler, want.Filler},
				{"Removed", got.Removed, want.Removed},
				{"Live", got.Live, want.Live},
				{"Reads", got.Reads, want.Reads},
				{"Defs", got.Defs, want.Defs},
				{"UseDefs", got.UseDefs, want.UseDefs},
				{"ExternalIn", got.ExternalIn, want.ExternalIn},
				// A safe set that lost a register draws fewer values for
				// its deletion mutants, which may remove the same
				// instructions; the draws after it show the shift.
				{"the next random draw", e.Rand.Int63(), ref.Rand.Int63()},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s %s: %s = %v with every joint mutant broken; want %v", name, n, f.field, f.got, f.want)
				}
			}
		}
		runs, fallbacks := groupedRuns(e)
		if jb.broken == 0 || fallbacks != int64(jb.broken) {
			t.Errorf("%s: %d joint mutants broken, %d fallbacks counted; want them equal and nonzero", name, jb.broken, fallbacks)
		}
		for _, an := range GroupedAnalyses {
			if tried, fell := e.Rig.Trace().Counter(JointCounter(an)), e.Rig.Trace().Counter(JointFallbackCounter(an)); tried != fell {
				t.Errorf("%s: %d %s joint mutants tried with every joint mutant broken, %d fell back; want them equal", name, tried, an, fell)
			}
			broken, intact := e.Rig.Trace().Counter(JointFallbackCounter(an)), ref.Rig.Trace().Counter(JointFallbackCounter(an))
			if broken <= intact {
				t.Errorf("%s: %d %s joint mutants fell back with every joint mutant broken, %d with them intact; want more, or a joint that passes goes untested",
					name, broken, an, intact)
			}
		}
		if limit := singletonRuns[name] + fallbacks; runs > limit {
			t.Errorf("%s: the grouped analyses ran %d mutants with every joint mutant broken; want at most %d, the per-item probes' %d plus one per fallback",
				name, runs, limit, singletonRuns[name])
		}
		if runs, _ := groupedRuns(ref); runs >= singletonRuns[name] {
			t.Errorf("%s: the grouped analyses ran %d mutants with joint mutants intact; want fewer than the per-item probes' %d",
				name, runs, singletonRuns[name])
		}
	}
}

// TestSlotFreeDelayCostsOneMutant: a sample without delay slots settles
// normalization with one joint mutant beyond the inert-register search.
func TestSlotFreeDelayCostsOneMutant(t *testing.T) {
	e, samples := setup(t, x86.New())
	s := samples["int.div.b_c"]
	if len(s.Region) < 3 {
		t.Fatalf("%s has %d instructions; the test needs several", s.Name, len(s.Region))
	}
	cost := func(f func()) (assemblies, runs int) {
		before := e.Rig.Stats()
		f()
		after := e.Rig.Stats()
		return after.Assemblies - before.Assemblies, after.Mutations - before.Mutations
	}
	// The first check also assembles the batched initializer and the
	// helpers, once per engine. The inert-register search's verdicts do not depend on
	// the clobber values, so a search on the same region costs the same.
	if !e.SameOutput(s, s.Region) {
		t.Fatal("the unmutated sample does not reproduce its output")
	}
	searchA, searchR := cost(func() {
		if _, ok := e.inertReg(s, s.Region); !ok {
			t.Fatal("no inert register")
		}
	})
	a := &Analysis{Sample: s, Region: s.CloneRegion(), Filler: map[int]bool{}, Slotted: map[int]bool{}}
	gotA, gotR := cost(func() {
		if err := e.normalizeDelaySlots(a); err != nil {
			t.Fatal(err)
		}
	})
	if len(a.Slotted) != 0 || !slices.Equal(ops(a.Region), ops(s.Region)) {
		t.Fatalf("x86 %s normalized to %v; want it unchanged", s.Name, ops(a.Region))
	}
	if gotA != searchA+1 || gotR != searchR+1 {
		t.Errorf("delay normalization cost %d assemblies, %d runs; want the search's %d, %d plus one mutant",
			gotA, gotR, searchA, searchR)
	}
}

// scripted is a rand.Source yielding Intn(1<<20) results from a script.
type scripted []int64

func (s *scripted) Int63() int64 {
	v := (*s)[0]
	*s = (*s)[1:]
	return v << 32 // Intn(2^k) keeps the top bits of Int31 = Int63>>32
}

func (s *scripted) Seed(int64) {}

// TestClobberValuesAvoidFixed: a random clobber value equal to the fixed
// one or its negation would leave a three-value verdict with two, so
// clobberValues skips them like 0 and repeats.
func TestClobberValuesAvoidFixed(t *testing.T) {
	draw := func(v int64) int64 { return v + 1<<19 } // Intn result for clobber value v
	src := scripted{draw(fixedClobber), draw(-fixedClobber), draw(0), draw(7), draw(7), draw(fixedClobber), draw(-9)}
	e := &Engine{Rand: rand.New(&src)}
	if got := e.clobberValues(1); got[0] != 7 {
		t.Errorf("first value %d; want 7 after skipping ±%d and 0", got[0], fixedClobber)
	}
	if got := e.clobberValues(2); got[0] != 7 || got[1] != -9 {
		t.Errorf("values %v; want [7 -9] after skipping a repeat and %d", got, fixedClobber)
	}
}
