package extract_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"srcg/internal/core"
	"srcg/internal/dfg"
	"srcg/internal/discovery"
	"srcg/internal/extract"
	"srcg/internal/obs"
	"srcg/internal/sem"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

func newTarget(arch string) target.Toolchain {
	switch arch {
	case "x86":
		return x86.New()
	case "sparc":
		return sparc.New()
	case "mips":
		return mips.New()
	case "alpha":
		return alpha.New()
	}
	return vax.New()
}

var (
	discoveredMu sync.Mutex
	discoveries  = map[string]*core.Discovery{}
)

// discovered returns the seed-1 discovery of arch, run once per test
// binary; an arch suffixed "-full" discovers the full shape set.
func discovered(tb testing.TB, arch string) *core.Discovery {
	tb.Helper()
	discoveredMu.Lock()
	defer discoveredMu.Unlock()
	if d, ok := discoveries[arch]; ok {
		return d
	}
	name, full := strings.CutSuffix(arch, "-full")
	d, err := core.Discover(newTarget(name), core.Options{Seed: 1, Full: full})
	if err != nil {
		tb.Fatal(err)
	}
	discoveries[arch] = d
	return d
}

// sameCandidates reports the first place two candidate sequences differ.
func sameCandidates(got, want []extract.Candidate) error {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("candidate %d: stream %v, eager %v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("stream yields %d candidates, eager product %d", len(got), len(want))
	}
	return nil
}

// TestStreamMatchesEagerProduct holds the lazy candidate stream to the
// eager product it replaced — every per-output list combined row-major,
// cut at total*4, stable-sorted by summed score and cut at total — on
// every step of the five targets' seed-1 graphs, under the default
// weights and the tie-heavy blind ones, and on hand-made lists.
func TestStreamMatchesEagerProduct(t *testing.T) {
	weights := []struct {
		name string
		w    extract.Weights
	}{{"default", extract.DefaultWeights}, {"blind", extract.BlindWeights}}
	for _, arch := range []string{"x86", "sparc", "mips", "alpha", "vax"} {
		d := discovered(t, arch)
		for _, w := range weights {
			t.Run(arch+"/"+w.name, func(t *testing.T) {
				x := extract.New(d.Model.WordBits, w.w, extract.MBoosts(d.Matches))
				for _, g := range d.ExtractionGraphs() {
					for i := range g.Steps {
						st := &g.Steps[i]
						// Unfixed at both search sizes, then with the
						// committed trees fixed, and with only the first
						// output fixed.
						partials := []*sem.Sem{nil, nil, d.Ext.Sems[st.Sig]}
						totals := []int{4000, 400, 400}
						if s := d.Ext.Sems[st.Sig]; s != nil && len(s.Outs) > 1 {
							keys := make([]string, 0, len(s.Outs))
							for k := range s.Outs {
								keys = append(keys, k)
							}
							sort.Strings(keys)
							partials = append(partials, &sem.Sem{Outs: map[string]*sem.Tree{keys[0]: s.Outs[keys[0]]}})
							totals = append(totals, 400)
						}
						for j, p := range partials {
							got, want := extract.StreamAndEager(x, g, st, p, totals[j])
							if err := sameCandidates(got, want); err != nil {
								t.Fatalf("%s step %d (%s), partial %v, total %d: %v", g.Sample.Name, i, st.Sig, p, totals[j], err)
							}
						}
					}
				}
			})
		}
	}
	synthetic := []struct {
		name   string
		scores [][]float64
		cond   bool
		total  int
	}{
		{"ties", [][]float64{{1, 1, 1, 0}, {2, 2, 0, 0}}, false, 3},
		{"three axes", [][]float64{{3, 2.5, 1, -1, -4}, {0.5, 0.5, -2}, {1, 0, 0, -0.25, -3}}, false, 5},
		{"three axes cut below a stride", [][]float64{{0, -0.1, -0.2}, {0, 0, -1, -1, -1}, {0, -0.5, -0.5, -0.5}}, false, 2},
		{"condition axis", [][]float64{{-1.5, -2, -2}, {4, 1, 1, 0}}, true, 4},
		{"one empty list", [][]float64{{1, 0}, {}, {3}}, false, 4},
		{"no axes", nil, false, 4},
		{"total 0", [][]float64{{0.1, 0.1, -0.3}, {0.7, 0.2, 0.2, 0.2}, {0, -0.1}}, true, 0},
	}
	for _, c := range synthetic {
		got, want := extract.SyntheticStreamAndEager(c.scores, c.cond, c.total)
		if err := sameCandidates(got, want); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestExhaustedSampleSearchedOnce: VAX's int.shr.b_c (a signed-count
// shift, beyond the primitives) exhausts its search in the first pass,
// and no later pass commits or retracts any of its signatures, so one
// SolveAll searches it once: one solve in the candidates-per-solve
// histogram tries 16,384 or more candidates, where searching it again
// in each pass made two.
func TestExhaustedSampleSearchedOnce(t *testing.T) {
	d := discovered(t, "vax")
	tr := obs.New(obs.NewVirtualClock(), nil)
	x := extract.New(d.Model.WordBits, extract.DefaultWeights, extract.MBoosts(d.Matches))
	x.Tr = tr
	out := x.SolveAll(d.ExtractionGraphs())
	if len(out.Failed) != 1 || out.Failed[0] != "int.shr.b_c" {
		t.Fatalf("failed %v, want [int.shr.b_c]", out.Failed)
	}
	var big int64
	for _, h := range tr.Hists() {
		if h.Name != extract.HistCandidatesPerSolve {
			continue
		}
		for b, n := range h.Buckets {
			if obs.BucketLow(b) >= 16384 {
				big += n
			}
		}
	}
	if big != 1 {
		t.Errorf("%d solves tried 16,384 candidates or more, want int.shr.b_c's one", big)
	}
}

// TestMemoMatchesRun holds the search's trajectory memo to run: every
// combination every search judges gets the memo's verdict that run gives
// on its overlay, over the five targets' quick and full graphs at seeds
// 1-3, with and without the signed-shift primitive, and over a hand-built
// graph whose branch loops back through need steps. It also bounds the
// memo of VAX's unsolvable int.shr.b_c, whose one seed-1 search judges
// 20,592 combinations: it makes at most a tenth as many nodes.
func TestMemoMatchesRun(t *testing.T) {
	check := func(t *testing.T, x *extract.Extractor, graphs []*dfg.Graph) (extract.Outcome, *extract.MemoCheck) {
		t.Helper()
		out, c := extract.SolveAllCheckingMemo(x, graphs)
		for i, m := range c.Mismatches {
			if i == 5 {
				t.Errorf("... %d more", len(c.Mismatches)-i)
				break
			}
			t.Error(m)
		}
		return out, c
	}
	for _, full := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, arch := range []string{"x86", "sparc", "mips", "alpha", "vax"} {
				t.Run(fmt.Sprintf("%s/seed%d/full=%v", arch, seed, full), func(t *testing.T) {
					d, err := core.Discover(newTarget(arch), core.Options{Seed: seed, Full: full})
					if err != nil {
						t.Fatal(err)
					}
					for _, ash := range []bool{false, true} {
						x := extract.New(d.Model.WordBits, extract.DefaultWeights, extract.MBoosts(d.Matches))
						x.SignedShifts = ash
						_, c := check(t, x, d.ExtractionGraphs())
						if arch != "vax" || seed != 1 || full || ash {
							continue
						}
						if ns := c.Nodes["int.shr.b_c"]; len(ns) != 1 || ns[0] > 2059 {
							t.Errorf("int.shr.b_c's searches made %v memo nodes, want one search of at most 2,059", ns)
						}
					}
				})
			}
		}
	}
	t.Run("loop", func(t *testing.T) {
		for _, tc := range []struct {
			name   string
			expect func(b, c int64) int64
			solved bool
		}{
			{"solvable", func(b, c int64) int64 { return min(b-1, c) }, true},
			{"unsolvable", func(b, c int64) int64 { return 3*b + 12345 }, false},
		} {
			x := extract.New(32, extract.DefaultWeights, nil)
			x.Sems["movl:mem,reg"] = &sem.Sem{Outs: map[string]*sem.Tree{"a1": sem.Load(sem.Arg("a0"))}}
			x.Sems["cmpl:mem,reg"] = &sem.Sem{Outs: map[string]*sem.Tree{"h.jg": sem.Bin(sem.PCmp, sem.Arg("a1"), sem.Load(sem.Arg("a0")))}}
			out, c := check(t, x, []*dfg.Graph{loopGraph(tc.expect)})
			if solved := len(out.Solved) == 1; solved != tc.solved || c.Combos < 100 {
				t.Errorf("%s: solved %v after %d combinations (%d explained), want solved %v after 100 or more",
					tc.name, out.Solved, c.Combos, c.Explained, tc.solved)
			}
		}
	})
}

// loopGraph models `r = b; do r = r - 1; while (r > c); a = r` with the
// decrement, the branch and the final store unknown. The store writes a
// and then a register whose tree may load a back, so the store must land
// before the second output is judged. Each valuation's expected a is
// expect(b, c).
func loopGraph(expect func(b, c int64) int64) *dfg.Graph {
	s := &discovery.Sample{Name: "loop", Kind: discovery.PBinary, COp: "-", Shape: "b,c"}
	for _, v := range [][2]int64{{10, 6}, {4, 6}, {20, 17}} {
		s.Vals = append(s.Vals, discovery.Valuation{A0: 99, B: v[0], C: v[1], Expect: expect(v[0], v[1])})
	}
	reg := func(r string, arg, producer int) dfg.Port {
		return dfg.Port{Kind: dfg.PReg, Reg: r, ArgIdx: arg, Producer: producer}
	}
	mem := func(addr string, arg int) dfg.Port {
		return dfg.Port{Kind: dfg.PMem, Addr: addr, ArgIdx: arg, Producer: -1}
	}
	return &dfg.Graph{
		Sample: s,
		Labels: map[string]int{"L": 1}, SlotA: "A", SlotB: "B", SlotC: "C",
		Steps: []dfg.Step{
			{Sig: "movl:mem,reg", Ins: []dfg.Port{mem("B", 0)}, Outs: []dfg.Port{reg("%eax", 1, -1)}},
			{Sig: "decl:reg", Labels: []string{"L"}, Ins: []dfg.Port{reg("%eax", 0, 0)}, Outs: []dfg.Port{reg("%eax", 0, -1)}},
			{Sig: "cmpl:mem,reg",
				Ins:  []dfg.Port{mem("C", 0), reg("%eax", 1, 1)},
				Outs: []dfg.Port{{Kind: dfg.PHidden, Tag: "cc", ArgIdx: -1, Producer: -1, KeyName: "h.jg"}}},
			{Sig: "jg:label", Target: "L",
				Ins: []dfg.Port{{Kind: dfg.PHidden, Tag: "cc", ArgIdx: -1, Producer: 2, KeyName: "h"}}},
			{Sig: "stx:reg,mem",
				Ins:  []dfg.Port{reg("%eax", 0, 1), mem("A", 1)},
				Outs: []dfg.Port{mem("A", 1), reg("%edx", 0, -1)}},
		},
	}
}

// BenchmarkSolveAll times reverse interpretation alone: graph matching
// and SolveAll over the graphs of one seed-1 discovery, the work of the
// reverse-interpretation phase; vax-full is the full shape set, whose
// second searches of int.shr.b_c and int.shr.K_b run to the budget.
func BenchmarkSolveAll(b *testing.B) {
	for _, arch := range []string{"sparc", "vax", "vax-full"} {
		b.Run(arch, func(b *testing.B) {
			d := discovered(b, arch)
			graphs := d.ExtractionGraphs()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var matches []*extract.MatchResult
				for _, g := range graphs {
					if m := extract.Match(g); m != nil {
						matches = append(matches, m)
					}
				}
				x := extract.New(d.Model.WordBits, extract.DefaultWeights, extract.MBoosts(matches))
				x.SolveAll(graphs)
			}
		})
	}
}
