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
		repair, allVals, ok := e.findRepair(a, reg, defGroup, start)
		if !ok {
			continue
		}
		same := func(mut []discovery.Instr) bool {
			if allVals {
				return e.SameOutput(a.Sample, mut)
			}
			return e.SameOutputBase(a.Sample, mut)
		}
		redefAt := -1
		for g := start; g <= end && end < n; g++ {
			broke := !same(a.insertAtGroup(g+1, repair))
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
				if !same(Insert(withClobber, pos, repair)) {
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
