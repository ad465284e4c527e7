// Benchmark harness: one benchmark per paper artifact (the E01–E18 index
// in DESIGN.md). Each benchmark regenerates its experiment's table/figure;
// EXPERIMENTS.md records the outputs next to the paper's claims. Run with
//
//	go test -bench=. -benchmem
package srcg_test

import (
	"testing"

	"srcg"
	"srcg/internal/experiments"
)

// benchSuite shares discovery results across all benchmarks in this file,
// matching the long-lived process a real evaluation run is.
var benchSuite = experiments.NewSuite()

// benchExperiment reruns one experiment per iteration. The first run per
// architecture performs full discovery (cached afterwards), so the first
// iteration is the honest end-to-end cost and later ones the analysis cost.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := benchSuite.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, m := range metrics {
				if v, ok := r.Metrics[m]; ok {
					b.ReportMetric(v, m)
				}
			}
		}
	}
}

func BenchmarkE01_Extraction(b *testing.B) {
	benchExperiment(b, "E01", "vax.region_instrs", "x86.region_instrs")
}

func BenchmarkE02_SyntaxProbe(b *testing.B) {
	benchExperiment(b, "E02", "sparc.add_lo", "sparc.add_hi")
}

func BenchmarkE03_Irregularities(b *testing.B) {
	benchExperiment(b, "E03", "x86.eax_ranges", "sparc.delay_slots", "alpha.redundant")
}

func BenchmarkE04_RedundantElim(b *testing.B) {
	benchExperiment(b, "E04", "alpha.removed", "vax.removed")
}

func BenchmarkE05_LiveRangeSplit(b *testing.B) {
	benchExperiment(b, "E05", "ranges")
}

func BenchmarkE06_ImplicitArgs(b *testing.B) {
	benchExperiment(b, "E06", "sparc.call_reads")
}

func BenchmarkE07_DefUse(b *testing.B) {
	benchExperiment(b, "E07")
}

func BenchmarkE08_DFG(b *testing.B) {
	benchExperiment(b, "E08", "mips.steps", "x86.steps")
}

func BenchmarkE09_GraphMatch(b *testing.B) {
	benchExperiment(b, "E09", "x86.matched")
}

func BenchmarkE10_ReverseInterp(b *testing.B) {
	benchExperiment(b, "E10", "x86.candidates", "x86.solved")
}

func BenchmarkE11_Primitives(b *testing.B) {
	benchExperiment(b, "E11", "x86.sems", "sparc.sems")
}

func BenchmarkE12_BEGSpec(b *testing.B) {
	benchExperiment(b, "E12", "rules", "chains")
}

func BenchmarkE13_Combiner(b *testing.B) {
	benchExperiment(b, "E13", "vax.Add", "sparc.Mul")
}

func BenchmarkE14_FullDiscovery(b *testing.B) {
	benchExperiment(b, "E14", "x86.valid", "vax.gaps")
}

func BenchmarkE15_CostAccounting(b *testing.B) {
	benchExperiment(b, "E15", "x86.executions")
}

func BenchmarkE16_LikelihoodAblation(b *testing.B) {
	benchExperiment(b, "E16", "full", "blind")
}

func BenchmarkE17_Limits(b *testing.B) {
	benchExperiment(b, "E17", "vax.failed")
}

func BenchmarkE18_HardwiredRegs(b *testing.B) {
	benchExperiment(b, "E18", "sparc.hardwired", "x86.hardwired")
}

func BenchmarkE19_SignedShiftExtension(b *testing.B) {
	benchExperiment(b, "E19", "vax.base.failed", "vax.ash.failed")
}

func BenchmarkE20_VariantsAblation(b *testing.B) {
	benchExperiment(b, "E20", "base.validated", "abl.validated")
}

// BenchmarkDiscoverFullShape measures discovery with the complete §3
// operand-shape sample set (105 samples, the paper's scale) on one CISC
// and one RISC target.
func BenchmarkDiscoverFullShape(b *testing.B) {
	for _, arch := range []string{"x86", "mips"} {
		arch := arch
		b.Run(arch, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := srcg.NewTarget(arch)
				d, err := srcg.Discover(t, srcg.Options{Seed: int64(i) + 1, Full: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(d.Outcome.Failed) != 0 {
					b.Fatalf("failed samples: %v", d.Outcome.Failed)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(len(d.Outcome.Solved)), "solved")
				}
			}
		})
	}
}

// BenchmarkRetargetedCompile measures compiling and running a program
// through a generated back end (the inner loop of a self-retargeted
// compiler), excluding the one-time discovery.
func BenchmarkRetargetedCompile(b *testing.B) {
	for _, arch := range []string{"x86", "sparc"} {
		arch := arch
		b.Run(arch, func(b *testing.B) {
			d, err := benchSuite.Discovered(arch)
			if err != nil {
				b.Fatal(err)
			}
			t := srcg.NewTarget(arch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range d.Validate(t, srcg.ValidationSuite[:2]) {
					if !r.OK {
						b.Fatalf("%s: %v", r.Program, r.Err)
					}
				}
			}
		})
	}
}
