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

// literalEngine returns an engine that runs §4 as the paper states it
// (Engine.literal), over e's model on a rig of its own, so its mutant
// tallies stay apart from e's, drawing its clobber values from seed.
func literalEngine(e *Engine, seed int64) *Engine {
	o := New(discovery.NewRig(e.Rig.TC), e.Model, rand.New(rand.NewSource(seed)))
	o.literal = true
	return o
}

// valuationInvariant reports whether core.Discover skips s as a binary
// payload whose valuations all print one output.
func valuationInvariant(s *discovery.Sample) bool {
	return s.Kind == discovery.PBinary && len(s.Vals) > 1 && !s.Sensitive()
}

// maskedRegion renders a's region with each filler's literal operands as
// "k": the oracle draws other filler constants.
func maskedRegion(a *Analysis) []string {
	out := make([]string, len(a.Region))
	for i, ins := range a.Region {
		if a.Filler[i] {
			ins.Args = slices.Clone(ins.Args)
			for j := range ins.Args {
				if ins.Args[j].Kind == discovery.KLit {
					ins.Args[j].Text = "k"
				}
			}
		}
		out[i] = ins.String()
	}
	return out
}

// runsOf sums e's mutant runs under the named analyses.
func runsOf(e *Engine, analyses ...string) int64 {
	var n int64
	for _, an := range analyses {
		n += e.Rig.Trace().Counter(RunsCounter(an))
	}
	return n
}

// TestAnalysisMatchesPaperOracle holds Analyze to §4 as the paper states
// it: on every quick and full sample of the five targets at seeds 1-3, it
// must learn what a literal engine with a seed of its own learns. The
// literal engine sends no joint mutant, so delay-slot normalization, the
// Fig. 6 safe set and the liveness scan probe every position, register
// and boundary alone, the scan with all three values; it studies the
// frame and hardwired registers, probes hardwired clobbers, and attribution
// walks past the last reader and repairs intervals live at one boundary.
//
// The comparison skips only the samples core.Discover skips as
// valuation-invariant binaries: on them the verdicts can turn on the
// clobber values drawn, since a clobber that happens to reproduce the one
// output passes for dead. On those the literal attribution runs on
// production's profile instead. Every other sample is compared, the
// stress samples and the insensitive int.const.* and int.call.none
// included, on the region after Fig. 6 (filler constants masked), the
// delay slots, Removed, Live on the registers production studies, Reads,
// Defs, UseDefs, ExternalIn and Hidden. The literal engine must find each
// frame register live and each hardwired register dead at every boundary,
// and spend more scan, safe-set and attribution mutants than production.
func TestAnalysisMatchesPaperOracle(t *testing.T) {
	hardwired := 0
	for _, tc := range []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()} {
		t.Run(tc.Name(), func(t *testing.T) {
			compared, twoRegs, frames, hard := 0, 0, 0, 0
			var prod, lit [2]int64 // scan+safeset runs, attribute runs
			for _, full := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					e, samples := setupSet(t, tc, gen.Config{Rand: rand.New(rand.NewSource(seed)), Full: full})
					o := literalEngine(e, seed)
					for _, name := range sortedKeys(samples) {
						s := samples[name]
						n := fmt.Sprintf("%s (seed %d, full %v)", name, seed, full)
						a, err := e.Analyze(s)
						if valuationInvariant(s) {
							if err == nil {
								matchAttribution(t, n, o, a)
							}
							continue
						}
						want, werr := o.Analyze(s)
						if (err == nil) != (werr == nil) {
							t.Errorf("%s: Analyze error %v; the literal engine's %v", n, err, werr)
						}
						if err != nil || werr != nil {
							continue
						}
						compared++
						if len(a.Live) > 1 {
							twoRegs++
						}
						for _, f := range []struct {
							field     string
							got, want any
						}{
							{"Region", maskedRegion(a), maskedRegion(want)},
							{"Slotted", a.Slotted, want.Slotted},
							{"Filler", sortedKeys(a.Filler), sortedKeys(want.Filler)},
							{"Removed", a.Removed, want.Removed},
							{"Reads", a.Reads, want.Reads},
							{"Defs", a.Defs, want.Defs},
							{"UseDefs", a.UseDefs, want.UseDefs},
							{"ExternalIn", a.ExternalIn, want.ExternalIn},
							{"Hidden", a.Hidden, want.Hidden},
						} {
							if !reflect.DeepEqual(f.got, f.want) {
								t.Errorf("%s: %s = %v; the literal engine finds %v\n%s", n, f.field, f.got, f.want, describe(want.Region))
							}
						}
						for reg, live := range a.Live {
							if !slices.Equal(live, want.Live[reg]) {
								t.Errorf("%s: %s live %v; the literal engine finds %v", n, reg, live, want.Live[reg])
							}
						}
						for reg, live := range want.Live {
							if slices.Contains(e.Model.Frame, reg) {
								frames++
								if slices.Contains(live, false) {
									t.Errorf("%s: frame register %s live %v; want live everywhere", n, reg, live)
								}
							}
							if e.hardwired(reg) {
								hard++
								if slices.Contains(live, true) {
									t.Errorf("%s: hardwired register %s live %v; want dead everywhere", n, reg, live)
								}
							}
						}
					}
					for i, ans := range [][]string{{anScan, anSafeSet}, {anAttribute}} {
						prod[i] += runsOf(e, ans...)
						lit[i] += runsOf(o, ans...)
					}
				}
			}
			hardwired += hard
			t.Logf("%d samples compared, %d frame and %d hardwired profiles; scan+safeset runs %d, literal %d; attribute runs %d, literal %d",
				compared, frames, hard, prod[0], lit[0], prod[1], lit[1])
			if twoRegs == 0 {
				t.Error("no sample studies two registers; the cross-register joint went untested")
			}
			if frames == 0 {
				t.Error("the literal engine profiled no frame register")
			}
			for i, an := range []string{"scan+safeset", "attribute"} {
				if prod[i] >= lit[i] {
					t.Errorf("%s runs %d; the literal engine's %d; want fewer", an, prod[i], lit[i])
				}
			}
		})
	}
	if hardwired == 0 {
		t.Error("the literal engine profiled no hardwired register")
	}
}

// matchAttribution runs o's attribution on a's liveness profile and
// checks that it learns a's Reads, Defs and UseDefs.
func matchAttribution(t *testing.T, n string, o *Engine, a *Analysis) {
	t.Helper()
	want := &Analysis{
		Sample: a.Sample, Region: a.Region, Filler: a.Filler, Slotted: a.Slotted, Groups: a.Groups,
		Reads: map[string][]int{}, Defs: map[string][]int{}, UseDefs: map[string][]int{},
	}
	for _, reg := range sortedKeys(a.Live) {
		if live := a.Live[reg]; slices.Contains(live, false) {
			o.attribute(want, reg, live) // the scan attributes no register live everywhere
		}
	}
	got, lit := [3]map[string][]int{a.Reads, a.Defs, a.UseDefs}, [3]map[string][]int{want.Reads, want.Defs, want.UseDefs}
	if !reflect.DeepEqual(got, lit) {
		t.Errorf("%s: Reads, Defs, UseDefs %v; literal attribution on its profile finds %v", n, got, lit)
	}
}
