package mutate_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"srcg/internal/dfg"
	"srcg/internal/discovery"
	"srcg/internal/gen"
	"srcg/internal/lexer"
	"srcg/internal/mutate"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

// TestMachineFactsKeepAnalyses: Model.Frame and Model.Hardwired only take
// registers out of the clobber analyses whose verdict they already
// decide. On every quick seed-1 sample of the five targets, Analyze with
// the facts set must learn what it learns with them cleared, profile no
// hardwired register and no frame register its region names only as a
// memory base, and spend fewer scan and safe-set mutants on every target.
func TestMachineFactsKeepAnalyses(t *testing.T) {
	for _, tc := range []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()} {
		t.Run(tc.Name(), func(t *testing.T) {
			samples, err := gen.Samples(gen.Config{Rand: rand.New(rand.NewSource(1))})
			if err != nil {
				t.Fatal(err)
			}
			boot := discovery.NewRig(tc)
			set, err := lexer.Bootstrap(boot, samples)
			if err != nil {
				t.Fatal(err)
			}
			slots, err := dfg.BindSlots(samples)
			if err != nil {
				t.Fatal(err)
			}
			set.Frame = lexer.ClassifyText(set, slots.A).Regs
			for _, s := range samples {
				if s.Name == "int.move.b" {
					set.Hardwired = mutate.New(boot, set, nil).DetectHardwired(s)
				}
			}
			if len(set.Frame) == 0 {
				t.Fatalf("slot a %q has no base register", slots.A)
			}
			cleared := *set
			cleared.Frame, cleared.Hardwired = nil, nil
			units := mutate.CompileUnits(boot, samples)
			rigs := [2]*discovery.Rig{discovery.NewRig(tc), discovery.NewRig(tc)}
			skipped := 0
			for _, s := range samples {
				if s.Kind == discovery.PStress {
					continue
				}
				var as [2]*mutate.Analysis
				var errs [2]error
				for i, m := range []*discovery.Model{&cleared, set} {
					e := mutate.New(rigs[i], m, rand.New(rand.NewSource(1)))
					e.Units = units
					as[i], errs[i] = e.Analyze(s)
				}
				if (errs[0] == nil) != (errs[1] == nil) {
					t.Errorf("%s: Analyze errors %v with the facts cleared, %v with them set", s.Name, errs[0], errs[1])
				}
				if errs[0] != nil || errs[1] != nil {
					continue
				}
				was, got := as[0], as[1]
				for _, f := range []struct {
					name     string
					was, got any
				}{
					{"Region", was.Region, got.Region},
					{"Reads", was.Reads, got.Reads},
					{"Defs", was.Defs, got.Defs},
					{"UseDefs", was.UseDefs, got.UseDefs},
					{"ExternalIn", was.ExternalIn, got.ExternalIn},
					{"Hidden", was.Hidden, got.Hidden},
					{"Removed", was.Removed, got.Removed},
					{"Slotted", was.Slotted, got.Slotted},
				} {
					if !reflect.DeepEqual(f.was, f.got) {
						t.Errorf("%s: %s %v with the facts cleared, %v with them set", s.Name, f.name, f.was, f.got)
					}
				}
				for reg, live := range got.Live {
					if w, ok := was.Live[reg]; ok && !slices.Equal(w, live) {
						t.Errorf("%s: %s live %v with the facts cleared, %v with them set", s.Name, reg, w, live)
					}
				}
				for reg := range was.Live {
					_, hard := set.Hardwired[reg]
					decided := hard || slices.Contains(set.Frame, reg) && onlyBase(got.Region, reg)
					if _, ok := got.Live[reg]; ok && decided {
						t.Errorf("%s: %s is profiled although the machine facts decide its liveness", s.Name, reg)
					}
					if decided {
						skipped++
					}
				}
			}
			if skipped == 0 {
				t.Error("no sample profiles a register the machine facts decide; the test checks nothing")
			}
			var runs [2]int64
			for i, rig := range rigs {
				for _, an := range []string{"scan", "safeset"} {
					runs[i] += rig.Trace().Counter(mutate.RunsCounter(an))
				}
			}
			if runs[1] >= runs[0] {
				t.Errorf("scan+safeset runs %d with the facts set, %d with them cleared; want fewer", runs[1], runs[0])
			}
		})
	}
}

// onlyBase reports whether region names reg in memory operands alone.
func onlyBase(region []discovery.Instr, reg string) bool {
	for _, ins := range region {
		for _, a := range ins.Args {
			if a.Kind != discovery.KMem && slices.Contains(a.Regs, reg) {
				return false
			}
		}
	}
	return true
}
