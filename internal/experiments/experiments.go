// Package experiments regenerates every evaluation artifact of the paper
// (Figures 1–15 and the §7.2 status claims), as indexed in DESIGN.md
// (E01–E18). Each experiment produces the table/figure text the paper
// reports plus machine-readable metrics for the benchmark harness.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"srcg/internal/core"
	"srcg/internal/discovery"
	"srcg/internal/extract"
	"srcg/internal/gen"
	"srcg/internal/lexer"
	"srcg/internal/mutate"
	"srcg/internal/obs"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/tera"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

// Seed is the deterministic seed shared by all experiments.
const Seed = 1

// Result is one experiment's regenerated artifact.
type Result struct {
	ID      string
	Title   string
	Report  string
	Metrics map[string]float64
}

// Archs lists the evaluated architectures in the paper's order.
var Archs = []string{"sparc", "alpha", "mips", "vax", "x86"}

func newTarget(name string) target.Toolchain {
	switch name {
	case "sparc":
		return sparc.New()
	case "alpha":
		return alpha.New()
	case "mips":
		return mips.New()
	case "vax":
		return vax.New()
	case "x86":
		return x86.New()
	case "tera":
		return tera.New()
	}
	panic("unknown arch " + name)
}

// Suite owns the cached full-discovery runs (one per architecture) that
// the experiments share. The cache is instance state, not package state:
// concurrent suites — or a future service running many evaluations — must
// not couple through a package-level map.
type Suite struct {
	mu    sync.Mutex
	cache map[string]*core.Discovery
}

// NewSuite returns an empty experiment suite.
func NewSuite() *Suite {
	return &Suite{cache: map[string]*core.Discovery{}}
}

// Discovered returns (running once and caching) the full discovery result
// for an architecture.
func (s *Suite) Discovered(arch string) (*core.Discovery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.cache[arch]; ok {
		return d, nil
	}
	d, err := core.Discover(newTarget(arch), core.Options{Seed: Seed})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", arch, err)
	}
	s.cache[arch] = d
	return d, nil
}

type experiment struct {
	id    string
	title string
	run   func(*Suite) (*Result, error)
}

var registry = []experiment{
	{"E01", "Fig. 3: harness and region extraction", e01},
	{"E02", "§3.1: assembler syntax discovery", e02},
	{"E03", "Fig. 4: compiler/architecture irregularities repaired", e03},
	{"E04", "Figs. 5-6: redundant-instruction elimination", e04},
	{"E05", "Fig. 7: live-range splitting", e05},
	{"E06", "Fig. 8: implicit-argument detection", e06},
	{"E07", "Fig. 9: definition/use classification", e07},
	{"E08", "Fig. 10: data-flow graphs", e08},
	{"E09", "Fig. 11: graph matching", e09},
	{"E10", "Figs. 12-13: reverse interpretation", e10},
	{"E11", "Fig. 14: primitive coverage of discovered semantics", e11},
	{"E12", "Fig. 15: synthesized BEG specification (SPARC)", e12},
	{"E13", "§6: the Combiner — instructions per intermediate operation", e13},
	{"E14", "§7.2: full discovery and end-to-end validation", e14},
	{"E15", "§1/§2: discovery cost accounting", e15},
	{"E16", "§5.2.2: likelihood-function ablation", e16},
	{"E17", "§7.1: generality limits (Tera syntax, VAX ashl)", e17},
	{"E18", "§7.2: hardwired-register detection (the paper's missing piece)", e18},
	{"E19", "§5.2.3/§8: SignedShifts extension resolves the VAX ashl limitation", e19},
	{"E20", "ablation: multi-valuation samples (what single-valuation discovery miscompiles)", e20},
}

// IDs lists experiment identifiers in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes one experiment by ID against this suite's cache.
func (s *Suite) Run(id string) (*Result, error) {
	for _, e := range registry {
		if e.id == id {
			r, err := e.run(s)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			r.ID, r.Title = e.id, e.title
			return r, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", id)
}

// helpers ---------------------------------------------------------------

func res(report string, metrics map[string]float64) (*Result, error) {
	return &Result{Report: report, Metrics: metrics}, nil
}

type table struct {
	sb strings.Builder
}

func (t *table) rowf(format string, args ...any) {
	fmt.Fprintf(&t.sb, format+"\n", args...)
}

func (t *table) String() string { return t.sb.String() }

// experiments -------------------------------------------------------------

func e01(s *Suite) (*Result, error) {
	var t table
	metrics := map[string]float64{}
	t.rowf("%-6s %-28s %s", "arch", "a=b+c region", "")
	for _, arch := range Archs {
		d, err := s.Discovered(arch)
		if err != nil {
			return nil, err
		}
		smp := sampleByName(d, "int.add.b_c")
		var ops []string
		for _, ins := range smp.Region {
			if ins.Op != "" {
				ops = append(ops, ins.Op)
			}
		}
		t.rowf("%-6s %-28s (%d instrs extracted between the Begin/End labels)",
			arch, strings.Join(ops, " "), len(ops))
		metrics[arch+".region_instrs"] = float64(len(ops))
		// Every analyzable sample must have extracted a region.
		extracted := 0
		for _, smp := range d.Samples {
			if len(smp.Region) > 0 {
				extracted++
			}
		}
		metrics[arch+".extracted"] = float64(extracted)
	}
	d, _ := s.Discovered("vax")
	smp := sampleByName(d, "int.add.b_c")
	t.rowf("\nThe VAX region is the paper's Fig. 3 single instruction: %s", smp.Region[0].String())
	return res(t.String(), metrics)
}

func sampleByName(d *core.Discovery, name string) *discovery.Sample {
	for _, s := range d.Samples {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func e02(s *Suite) (*Result, error) {
	var t table
	metrics := map[string]float64{}
	t.rowf("%-6s %-8s %-7s %-5s %-22s %s", "arch", "comment", "litpfx", "regs", "clobber", "notable immediate range")
	for _, arch := range Archs {
		d, err := s.Discovered(arch)
		if err != nil {
			return nil, err
		}
		m := d.Model
		notable := ""
		keys := make([]string, 0, len(m.ImmRange))
		for k := range m.ImmRange {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			r := m.ImmRange[k]
			if r[0] > -1<<31 || r[1] < 1<<31-1 {
				notable = fmt.Sprintf("%s [%d,%d]", k, r[0], r[1])
				break
			}
		}
		t.rowf("%-6s %-8q %-7q %-5d %-22s %s", arch, m.CommentChar, m.LitPrefix,
			len(m.Registers), m.ClobberText, notable)
		metrics[arch+".registers"] = float64(len(m.Registers))
	}
	d, _ := s.Discovered("sparc")
	r := d.Model.ImmRange["add:1"]
	t.rowf("\nThe paper's §3.1 example: SPARC add immediates are restricted to [%d,%d].", r[0], r[1])
	metrics["sparc.add_lo"], metrics["sparc.add_hi"] = float64(r[0]), float64(r[1])
	return res(t.String(), metrics)
}

func e03(s *Suite) (*Result, error) {
	var t table
	metrics := map[string]float64{}
	// 4(a,c): SPARC implicit call arguments and the delay-slot move.
	d, err := s.Discovered("sparc")
	if err != nil {
		return nil, err
	}
	a := d.Analyses["int.mul.b_c"]
	slots := 0
	for i := range a.Region {
		if a.Slotted[i] {
			slots++
		}
	}
	t.rowf("Fig. 4(a,c) sparc a=b*c: %d delay slot(s) normalized; call reads %v", slots, groupsOf(a.Reads, callGroup(a)))
	metrics["sparc.call_reads"] = float64(len(groupsOf(a.Reads, callGroup(a))))
	metrics["sparc.delay_slots"] = float64(slots)
	// 4(b): x86 register reuse.
	dx, err := s.Discovered("x86")
	if err != nil {
		return nil, err
	}
	ax := dx.Analyses["int.call.b_c"]
	ranges := dx.Engine.SplitLiveRanges(ax, "%eax")
	t.rowf("Fig. 4(b)   x86 a=P2(b,c): %%eax splits into %d live ranges", len(ranges))
	metrics["x86.eax_ranges"] = float64(len(ranges))
	// 4(d): Alpha redundant instruction.
	da, err := s.Discovered("alpha")
	if err != nil {
		return nil, err
	}
	removed := 0
	for _, name := range []string{"int.shl.b_c", "int.add.b_c", "int.xor.b_c"} {
		removed += len(da.Analyses[name].Removed)
	}
	t.rowf("Fig. 4(d)   alpha: %d redundant canonicalizing instructions removed across three samples", removed)
	metrics["alpha.redundant"] = float64(removed)
	return res(t.String(), metrics)
}

// callGroup locates the group index of the call instruction.
func callGroup(a *mutate.Analysis) int {
	for g := range a.Groups {
		if a.GroupInstr(g).Op == "call" {
			return g
		}
	}
	return -1
}

func groupsOf(m map[string][]int, g int) []string {
	var out []string
	for reg, gs := range m {
		for _, x := range gs {
			if x == g {
				out = append(out, reg)
			}
		}
	}
	sort.Strings(out)
	return out
}

func e04(s *Suite) (*Result, error) {
	var t table
	metrics := map[string]float64{}
	t.rowf("%-6s %-28s %s", "arch", "redundant instrs removed", "samples with removals")
	for _, arch := range Archs {
		d, err := s.Discovered(arch)
		if err != nil {
			return nil, err
		}
		total, hit := 0, 0
		for _, a := range d.Analyses {
			total += len(a.Removed)
			if len(a.Removed) > 0 {
				hit++
			}
		}
		t.rowf("%-6s %-28d %d", arch, total, hit)
		metrics[arch+".removed"] = float64(total)
	}
	t.rowf("\nThe Alpha dominates, as in Fig. 6: its compiler emits a canonicalizing")
	t.rowf("addl $n,0,$n after every operation, observationally redundant on in-range values.")
	return res(t.String(), metrics)
}

func e05(s *Suite) (*Result, error) {
	d, err := s.Discovered("x86")
	if err != nil {
		return nil, err
	}
	a := d.Analyses["int.call.b_c"]
	ranges := d.Engine.SplitLiveRanges(a, "%eax")
	var t table
	t.rowf("x86 a = P2(b, c): the compiler stages both arguments and the result through %%eax (Fig. 4b).")
	for _, r := range ranges {
		t.rowf("  range at instructions %v  contains-its-definition=%v", r.Refs, r.Valid)
	}
	t.rowf("The invalid range is the call result: its definition is implicit (found by E06).")
	return res(t.String(), map[string]float64{"ranges": float64(len(ranges))})
}

func e06(s *Suite) (*Result, error) {
	var t table
	metrics := map[string]float64{}
	d, err := s.Discovered("x86")
	if err != nil {
		return nil, err
	}
	a := d.Analyses["int.div.b_c"]
	for g := range a.Groups {
		op := a.GroupInstr(g).Op
		if op == "cltd" || op == "idivl" {
			t.rowf("x86 %-6s reads %v defines %v", op, groupsOf(a.Reads, g), groupsOf(a.Defs, g))
		}
	}
	ds, err := s.Discovered("sparc")
	if err != nil {
		return nil, err
	}
	as := ds.Analyses["int.mul.b_c"]
	for g := range as.Groups {
		if as.GroupInstr(g).Op == "call" {
			t.rowf("sparc call .mul reads %v defines %v (Fig. 15e)", groupsOf(as.Reads, g), groupsOf(as.Defs, g))
			metrics["sparc.call_reads"] = float64(len(groupsOf(as.Reads, g)))
		}
	}
	return res(t.String(), metrics)
}

func e07(s *Suite) (*Result, error) {
	d, err := s.Discovered("x86")
	if err != nil {
		return nil, err
	}
	a := d.Analyses["int.mul.b_c"]
	ranges := d.Engine.SplitLiveRanges(a, "%edx")
	var t table
	t.rowf("x86 a = b * c (the paper's §4.5 example):")
	metrics := map[string]float64{}
	for _, r := range ranges {
		uses := d.Engine.ClassifyRefs(a, r)
		for i, ref := range r.Refs {
			t.rowf("  %%edx at %-30s -> %s", a.Region[ref].String(), uses[i])
			metrics[fmt.Sprintf("use%d", i)] = float64(int(uses[i]))
		}
	}
	return res(t.String(), metrics)
}

func e08(s *Suite) (*Result, error) {
	var t table
	dm, err := s.Discovered("mips")
	if err != nil {
		return nil, err
	}
	t.rowf("MIPS multiplication graph (Fig. 10 a-b):")
	t.rowf("%s", dm.Graphs["int.mul.b_c"].Dump())
	dx, err := s.Discovered("x86")
	if err != nil {
		return nil, err
	}
	t.rowf("x86 division graph (Fig. 10 c-d; implicit %%eax/%%edx arguments explicit):")
	t.rowf("%s", dx.Graphs["int.div.b_c"].Dump())
	return res(t.String(), map[string]float64{
		"mips.steps": float64(len(dm.Graphs["int.mul.b_c"].Steps)),
		"x86.steps":  float64(len(dx.Graphs["int.div.b_c"].Steps)),
	})
}

func e09(s *Suite) (*Result, error) {
	var t table
	metrics := map[string]float64{}
	t.rowf("%-6s %-9s %s", "arch", "matched", "example: P node of a=b*c")
	for _, arch := range Archs {
		d, err := s.Discovered(arch)
		if err != nil {
			return nil, err
		}
		example := ""
		for _, m := range d.Matches {
			if m.Sample == "int.mul.b_c" && m.PSig != "" {
				example = m.PSig
			}
		}
		t.rowf("%-6s %-9d %s", arch, len(d.Matches), example)
		metrics[arch+".matched"] = float64(len(d.Matches))
	}
	return res(t.String(), metrics)
}

func e10(s *Suite) (*Result, error) {
	var t table
	metrics := map[string]float64{}
	t.rowf("%-6s %-7s %-7s %-9s %-10s %s", "arch", "solved", "failed", "by-match", "by-search", "candidates tried")
	for _, arch := range Archs {
		d, err := s.Discovered(arch)
		if err != nil {
			return nil, err
		}
		st := d.Rig.Stats()
		t.rowf("%-6s %-7d %-7d %-9d %-10d %d", arch,
			len(d.Outcome.Solved), len(d.Outcome.Failed), st.SolvedByMatch, st.SolvedBySearch, st.CandidatesTried)
		metrics[arch+".solved"] = float64(len(d.Outcome.Solved))
		metrics[arch+".failed"] = float64(len(d.Outcome.Failed))
		metrics[arch+".candidates"] = float64(st.CandidatesTried)
	}
	t.rowf("\nThe paper (§5.2.2): \"Often the reverse interpreter will come up with the")
	t.rowf("correct semantic interpretation of an instruction after just one or two tries.\"")
	return res(t.String(), metrics)
}

func e11(s *Suite) (*Result, error) {
	var t table
	metrics := map[string]float64{}
	for _, arch := range Archs {
		d, err := s.Discovered(arch)
		if err != nil {
			return nil, err
		}
		sigs := make([]string, 0, len(d.Ext.Sems))
		for sig := range d.Ext.Sems {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		t.rowf("%s (%d signatures):", arch, len(sigs))
		for _, sig := range sigs {
			t.rowf("  %-30s %s", sig, d.Ext.Sems[sig])
		}
		metrics[arch+".sems"] = float64(len(sigs))
	}
	return res(t.String(), metrics)
}

func e12(s *Suite) (*Result, error) {
	d, err := s.Discovered("sparc")
	if err != nil {
		return nil, err
	}
	if d.Spec == nil {
		return nil, fmt.Errorf("no spec: %v", d.SpecErr)
	}
	text := d.Spec.RenderBEG(d.Model)
	return res(text, map[string]float64{
		"rules":  float64(len(d.Spec.Ops) + len(d.Spec.Branches) + len(d.Spec.Calls)),
		"chains": float64(len(d.Spec.Chains)),
	})
}

func e13(s *Suite) (*Result, error) {
	var t table
	metrics := map[string]float64{}
	ops := []string{"Add", "Mul", "Div", "BranchEQ", "Const", "Move", "Call2"}
	t.rowf("%-9s %s", "op", strings.Join(Archs, "  "))
	for _, op := range ops {
		row := fmt.Sprintf("%-9s", op)
		for _, arch := range Archs {
			d, err := s.Discovered(arch)
			if err != nil {
				return nil, err
			}
			n, ok := 0, false
			if d.Spec != nil {
				n, ok = d.Spec.Coverage()[op], true
			}
			if !ok {
				row += "     -"
			} else {
				row += fmt.Sprintf(" %5d", n)
			}
			metrics[arch+"."+op] = float64(n)
		}
		t.rowf("%s", row)
	}
	t.rowf("\nShape checks: the VAX Add is 1 instruction (memory-to-memory addl3, Fig. 3);")
	t.rowf("SPARC Mul is the longest (software .mul call with argument staging, Fig. 15e);")
	t.rowf("branches everywhere need compare+branch combinations (the Combiner, Fig. 15d).")
	return res(t.String(), metrics)
}

func e14(s *Suite) (*Result, error) {
	var t table
	metrics := map[string]float64{}
	t.rowf("%-6s %5s %5s %8s %7s %7s", "arch", "regs", "sems", "samples", "valid", "gaps")
	for _, arch := range Archs {
		d, err := s.Discovered(arch)
		if err != nil {
			return nil, err
		}
		valid := 0
		if d.Spec != nil {
			for _, r := range d.Validate(newTarget(arch), core.ValidationSuite) {
				if r.OK {
					valid++
				}
			}
		}
		gaps := 0
		if d.Spec != nil {
			gaps = len(d.Spec.Gaps)
		}
		t.rowf("%-6s %5d %5d %5d/%-2d %4d/%-2d %7d", arch, len(d.Model.Registers),
			len(d.Ext.Sems), len(d.Outcome.Solved),
			len(d.Outcome.Solved)+len(d.Outcome.Failed),
			valid, len(core.ValidationSuite), gaps)
		metrics[arch+".valid"] = float64(valid)
		metrics[arch+".gaps"] = float64(gaps)
	}
	t.rowf("\n§7.2: \"generate (almost) correct machine specifications\" — the one gap is")
	t.rowf("the VAX's variable shift (ashl), whose sign-directed count is beyond the")
	t.rowf("Fig. 14 primitives, exactly as the paper predicts (§5.2.3).")
	return res(t.String(), metrics)
}

func e15(s *Suite) (*Result, error) {
	var t table
	metrics := map[string]float64{}
	t.rowf("%-6s %9s %9s %11s %11s %8s %10s", "arch", "compiles", "assembles", "links", "executions", "runs", "mutations")
	for _, arch := range Archs {
		d, err := s.Discovered(arch)
		if err != nil {
			return nil, err
		}
		st := d.Rig.Stats()
		runs := d.ProbeStats.QuorumRuns
		t.rowf("%-6s %9d %9d %11d %11d %8d %10d", arch, st.Compiles, st.Assemblies, st.Links, st.Executions, runs, st.Mutations)
		metrics[arch+".executions"] = float64(st.Executions)
		metrics[arch+".runs"] = float64(runs)
		metrics[arch+".assemblies"] = float64(st.Assemblies)
	}
	t.rowf("\nexecutions are logical (one per linked program); runs are the physical")
	t.rowf("executions the output quorum spent on them. A mutant that reproduces its")
	t.rowf("reference output settles in one run on a machine never caught lying, so")
	t.rowf("runs/executions is 1.4-1.5, not the two-run quorum's 2.")
	t.rowf("A mutant is assembled once, then linked and run once with an initializer")
	t.rowf("that hands out every valuation of its sample in turn. Assembler-bisection")
	t.rowf("probes and the mutants the assembler rejects are never linked, so")
	t.rowf("assembles outnumber links.")
	t.rowf("\nThe paper reports \"several hours\" per architecture on 1997 hardware and")
	t.rowf("calls it 1-2 orders of magnitude faster than manual retargeting; the shape")
	t.rowf("here is the same (thousands of toolchain interactions), compressed to seconds.")
	return res(t.String(), metrics)
}

func e16(s *Suite) (*Result, error) {
	// Ablate likelihood components on x86: rebuild extraction over the
	// same graphs with modified weights.
	d, err := s.Discovered("x86")
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name   string // display label
		metric string // whitespace-free key (benchmarks report it as a unit)
		w      extract.Weights
	}{
		{"full (c1..c4)", "full", extract.DefaultWeights},
		{"no M", "noM", modWeights(func(w *extract.Weights) { w.M = 0 })},
		{"no P", "noP", modWeights(func(w *extract.Weights) { w.P = 0 })},
		{"no G", "noG", modWeights(func(w *extract.Weights) { w.G = 0 })},
		{"no N", "noN", modWeights(func(w *extract.Weights) { w.N = 0 })},
		{"blind", "blind", extract.BlindWeights},
	}
	var t table
	metrics := map[string]float64{}
	t.rowf("%-14s %-10s %-8s %s", "configuration", "candidates", "solved", "failed")
	for _, cfg := range configs {
		// A private tracer scopes the candidates-tried counter to this
		// configuration without disturbing the discovery run's telemetry.
		tr := obs.New(obs.NewVirtualClock(), nil)
		x := extract.New(d.Model.WordBits, cfg.w, extract.MBoosts(d.Matches))
		x.Tr = tr
		out := x.SolveAll(d.ExtractionGraphs())
		tried := tr.Counter(extract.CtrCandidatesTried)
		t.rowf("%-14s %-10d %-8d %d", cfg.name, tried, len(out.Solved), len(out.Failed))
		metrics[cfg.metric] = float64(tried)
	}
	t.rowf("\nThe paper's claim (§5.2.2): static likelihoods beat blind enumeration;")
	t.rowf("graph-match evidence (M) carries the most weight, the mnemonic (N) the least.")
	return res(t.String(), metrics)
}

func modWeights(f func(*extract.Weights)) extract.Weights {
	w := extract.DefaultWeights
	f(&w)
	return w
}

func e17(s *Suite) (*Result, error) {
	var t table
	// Tera: the Lexer fails gracefully on a Scheme-syntax assembler.
	rig := discovery.NewRig(newTarget("tera"))
	samples, err := gen.Samples(gen.Config{Rand: rand.New(rand.NewSource(Seed))})
	if err != nil {
		return nil, err
	}
	_, lexErr := lexer.Bootstrap(rig, samples)
	if lexErr == nil {
		return nil, fmt.Errorf("the Tera assembler should defeat the Lexer")
	}
	t.rowf("Tera-style assembler: Bootstrap fails gracefully with:\n  %v", lexErr)
	// VAX ashl: the extractor times out on conditional semantics.
	d, err := s.Discovered("vax")
	if err != nil {
		return nil, err
	}
	t.rowf("\nVAX: extraction failures: %v", d.Outcome.Failed)
	gaps := []string{}
	if d.Spec != nil {
		gaps = d.Spec.Gaps
	}
	t.rowf("VAX: specification gaps:  %v", gaps)
	t.rowf("\n§5.2.3: \"we currently cannot analyze instructions like the VAX's")
	t.rowf("arithmetic shift (ash), which shifts to the left if the count is positive,")
	t.rowf("and to the right otherwise\" — reproduced: the variable-count a=b>>c sample")
	t.rowf("needs shr(x, neg(y)), which the Fig. 14 primitive enumeration cannot express.")
	return res(t.String(), map[string]float64{"vax.failed": float64(len(d.Outcome.Failed))})
}

func e18(s *Suite) (*Result, error) {
	var t table
	metrics := map[string]float64{}
	t.rowf("%-6s %s", "arch", "hardwired registers discovered")
	for _, arch := range Archs {
		d, err := s.Discovered(arch)
		if err != nil {
			return nil, err
		}
		var regs []string
		for r, v := range d.Model.Hardwired {
			regs = append(regs, fmt.Sprintf("%s=%d", r, v))
		}
		sort.Strings(regs)
		t.rowf("%-6s %s", arch, strings.Join(regs, " "))
		metrics[arch+".hardwired"] = float64(len(regs))
	}
	t.rowf("\nThe paper (§7.2): \"we currently do not test for registers with hardwired")
	t.rowf("values (register %%g0 is always 0 on the Sparc)\" — implemented here by")
	t.rowf("renaming the move sample's data path onto each candidate register.")
	return res(t.String(), metrics)
}

func e19(s *Suite) (*Result, error) {
	var t table
	base, err := s.Discovered("vax")
	if err != nil {
		return nil, err
	}
	ext, err := core.Discover(newTarget("vax"), core.Options{Seed: Seed, SignedShifts: true})
	if err != nil {
		return nil, err
	}
	row := func(label string, d *core.Discovery) {
		gaps := []string{}
		if d.Spec != nil {
			gaps = d.Spec.Gaps
		}
		t.rowf("%-28s solved=%-3d failed=%-2d gaps=%v",
			label, len(d.Outcome.Solved), len(d.Outcome.Failed), gaps)
	}
	t.rowf("VAX, primary shape set (Seed %d):", Seed)
	row("Fig. 14 primitives (paper)", base)
	row("with signed-count shift", ext)
	t.rowf("\nThe paper (§5.2.3) cannot express the VAX ashl — one instruction that")
	t.rowf("shifts left for positive counts and right for negative ones — in the")
	t.rowf("Fig. 14 vocabulary; a = b >> c compiles to mnegl/ashl and stays unsolved.")
	t.rowf("Adding one primitive (ash, a signed-count shift) to the enumeration makes")
	t.rowf("the sequence expressible as shiftSigned(load(b), neg-count) and the sample")
	t.rowf("extracts; everything else is unchanged. This is the \"richer primitive")
	t.rowf("set\" direction the paper sketches as future work (§8).")
	return res(t.String(), map[string]float64{
		"vax.base.failed": float64(len(base.Outcome.Failed)),
		"vax.ash.failed":  float64(len(ext.Outcome.Failed)),
	})
}

func e20(s *Suite) (*Result, error) {
	var t table
	base, err := s.Discovered("x86")
	if err != nil {
		return nil, err
	}
	abl, err := core.Discover(newTarget("x86"), core.Options{Seed: Seed, NoVariants: true})
	if err != nil {
		return nil, err
	}
	countOK := func(d *core.Discovery) (ok, silent int) {
		for _, r := range d.Validate(newTarget("x86"), core.ValidationSuite) {
			switch {
			case r.OK:
				ok++
			case r.Err == nil:
				silent++ // ran but printed the wrong answer: a miscompile
			}
		}
		return
	}
	okB, silB := countOK(base)
	okA, silA := countOK(abl)
	t.rowf("x86, primary shape set (Seed %d):", Seed)
	t.rowf("%-26s solved=%-3d validated=%d/%d silent-miscompiles=%d",
		"with variants", len(base.Outcome.Solved), okB, len(core.ValidationSuite), silB)
	t.rowf("%-26s solved=%-3d validated=%d/%d silent-miscompiles=%d",
		"single valuation", len(abl.Outcome.Solved), okA, len(core.ValidationSuite), silA)
	t.rowf("\nEach sample here carries two extra hidden-value valuations beyond the")
	t.rowf("paper's single Init: without them a conditional sample's untaken branch")
	t.rowf("is indistinguishable from dead code (the eliminator removes it) and")
	t.rowf("value-symmetric misreadings (negated load + negated store) satisfy the")
	t.rowf("one observation. The ablation shows what that costs end to end.")
	return res(t.String(), map[string]float64{
		"base.validated": float64(okB),
		"abl.validated":  float64(okA),
		"abl.silent":     float64(silA),
	})
}
