// Package mutate implements the Preprocessor of the discovery unit (paper
// §4): mutation analysis. Samples are mutated — instructions deleted,
// moved, or copied; registers renamed or clobbered (Fig. 5) — reassembled,
// re-run on the target, and their output compared with the original. The
// analyses built on this primitive are redundant-instruction elimination
// (§4.2), live-range splitting (§4.3), implicit-argument detection (§4.4),
// definition/use classification (§4.5), and hidden-channel detection
// (§7.1). Every verdict requires all mutation variants (different clobber
// values, different replacement registers) to agree.
package mutate

import (
	"fmt"
	"math/rand"
	"strings"

	"srcg/internal/asm"
	"srcg/internal/discovery"
)

// Engine runs mutated samples against the target. Every mutant is
// probed afresh; the only verdict it takes on trust is its sample's
// baseline, when a CheckBaseline elsewhere already passed it
// (AssumeBaseline).
type Engine struct {
	Rig   *discovery.Rig
	Model *discovery.Model
	Rand  *rand.Rand
	// Units, when set, holds the assembled initializer and helper units
	// of a discovery (CompileUnits), shared read-only by its engines; a
	// source it lacks is compiled into the engine's own cache.
	Units Units

	ownUnits map[string]*asm.Unit
	baseOK   *discovery.Sample
	// runs is the RunsCounter of the analysis the engine is running.
	runs string
}

// AnalysisNames names the analyses whose mutant runs the engine tallies, in
// pipeline order: the baseline checks, delay-slot normalization, the
// Fig. 6 clobber-safe sets, redundant-instruction elimination, the
// liveness scan, def/read attribution, hidden-channel detection, the
// output-writer and hardwired-register probes, live-range splitting and
// def/use classification, and the Synthesizer's probes (OutputOf,
// PrintsAll). Every run counts one discovery.mutations and one
// RunsCounter of its analysis, so the tallies sum to the mutation count.
var AnalysisNames = []string{
	anBaseline, anDelay, anSafeSet, anRedundant, anScan, anAttribute,
	anHidden, anMemWriter, anHardwired, anRanges, anSynth,
}

const (
	anBaseline  = "baseline"
	anDelay     = "delay"
	anSafeSet   = "safeset"
	anRedundant = "redundant"
	anScan      = "scan"
	anAttribute = "attribute"
	anHidden    = "hidden"
	anMemWriter = "memwriter"
	anHardwired = "hardwired"
	anRanges    = "ranges"
	anSynth     = "synth"
)

// RunsCounter names the tracer counter tallying an analysis's mutant runs.
func RunsCounter(analysis string) string { return "mutate.runs." + analysis }

// GroupedAnalyses names the analyses that group-test their probes: one
// joint mutant stands for many that almost always pass, and only a joint
// mutant that breaks falls back to probing them one at a time.
var GroupedAnalyses = []string{anDelay, anScan}

// JointFallbackCounter names the tracer counter tallying a grouped
// analysis's joint mutants that broke.
func JointFallbackCounter(analysis string) string { return "mutate.joint_fallbacks." + analysis }

// enter makes analysis the one the engine's mutant runs are tallied
// under and returns the function restoring the previous one, for
// defer e.enter(analysis)().
func (e *Engine) enter(analysis string) func() {
	prev := e.runs
	e.runs = RunsCounter(analysis)
	return func() { e.runs = prev }
}

// New creates a mutation engine.
func New(rig *discovery.Rig, m *discovery.Model, rnd *rand.Rand) *Engine {
	return &Engine{
		Rig:      rig,
		Model:    m,
		Rand:     rnd,
		ownUnits: map[string]*asm.Unit{},
	}
}

// Units maps a C source to its assembled unit: the initializers and the
// helper procedures that every mutant of a sample links beside its main
// unit. Built once per discovery and then only read, it is shared by
// every engine, forks included.
type Units map[string]*asm.Unit

// CompileUnits compiles and assembles, in sample order, each distinct
// unit the samples' mutants link: every valuation's initializer, the
// batched initializer and the helpers. A source that fails is left out,
// so an engine that needs it compiles it again and sees the error.
func CompileUnits(rig *discovery.Rig, samples []*discovery.Sample) Units {
	t := Units{}
	add := func(src string) {
		if _, ok := t[src]; ok {
			return
		}
		if u, err := compileUnit(rig, src); err == nil {
			t[src] = u
		}
	}
	for _, s := range samples {
		for val := 0; val < s.NumValuations(); val++ {
			add(s.Valuation(val).InitSource)
		}
		init, _ := s.Batch()
		add(init)
		add(s.HelperSource)
	}
	return t
}

func compileUnit(rig *discovery.Rig, src string) (*asm.Unit, error) {
	text, err := rig.CompileAsm(src)
	if err != nil {
		return nil, err
	}
	return rig.Assemble(text)
}

// unit returns the assembled unit of src, from the shared table or the
// engine's own cache, compiling it on first use.
func (e *Engine) unit(src string) (*asm.Unit, error) {
	if u, ok := e.Units[src]; ok {
		return u, nil
	}
	if u, ok := e.ownUnits[src]; ok {
		return u, nil
	}
	u, err := compileUnit(e.Rig, src)
	if err != nil {
		return nil, err
	}
	e.ownUnits[src] = u
	return u, nil
}

// DropUnits forgets every initializer and helper unit the engine holds,
// shared or its own; a later run compiles what it needs again.
func (e *Engine) DropUnits() {
	e.Units = nil
	clear(e.ownUnits)
}

// SameOutput assembles the sample with a replacement region once, then
// links it into one image that runs every valuation in turn (the
// sample's batched initializer) and runs that, reporting whether it
// still prints every expected output. Any failure (assembly rejection,
// link error, runtime fault, wrong output) counts as "behaved
// differently".
func (e *Engine) SameOutput(s *discovery.Sample, region []discovery.Instr) bool {
	return e.sameAll(e.build(s, region))
}

// SameOutputVal checks a single valuation (index 0 is the base). The
// value-specific attribution probes (§4.4's repair insertions) use the
// base valuation only, since their repair constants are drawn from it.
// The mutant runs under Rig.LinkRunExpect: the expected output is the
// exact reference, so on a machine never caught lying one run that
// reproduces it settles the verdict.
func (e *Engine) SameOutputVal(s *discovery.Sample, region []discovery.Instr, val int) bool {
	return e.same(e.build(s, region), val)
}

// CheckBaseline fails unless the unmutated sample reproduces the
// expected output of every valuation. Unlike a mutant's check it runs the
// full output quorum, once, on the image that runs every valuation: this
// is the baseline mutants are compared against, and on a lying machine
// its disagreeing runs trip the prober's noisy latch. An assumed sample
// (AssumeBaseline) passes without a probe.
func (e *Engine) CheckBaseline(s *discovery.Sample) error {
	if s == e.baseOK {
		return nil
	}
	defer e.enter(anBaseline)()
	init, want := s.Batch()
	if out, err := e.run(e.build(s, s.Region), init, ""); err != nil || out != want {
		return fmt.Errorf("mutate: %s: baseline region does not reproduce expected output", s.Name)
	}
	return nil
}

// AssumeBaseline records that the unmutated sample reproduces the
// expected output of every valuation, as a CheckBaseline on another
// engine found; this engine's own check of the sample then passes
// without re-probing.
func (e *Engine) AssumeBaseline(s *discovery.Sample) {
	e.baseOK = s
}

// OutputOf runs the sample with a replacement region under valuation val
// under the full output quorum and returns the raw stdout, for the
// Synthesizer's probes that compare two outputs observed on the machine.
func (e *Engine) OutputOf(s *discovery.Sample, region []discovery.Instr, val int) (string, error) {
	defer e.enter(anSynth)()
	return e.run(e.build(s, region), s.Valuation(val).InitSource, "")
}

// PrintsAll assembles the sample with a replacement region and reports
// whether the image running every valuation prints want[val] for each
// valuation val in turn. want holds one exact reference per valuation
// (Rig.LinkRunExpect), such as the output cell's initial value that the
// Synthesizer's jump probe expects once its branch skips the store.
func (e *Engine) PrintsAll(s *discovery.Sample, region []discovery.Instr, want []string) bool {
	defer e.enter(anSynth)()
	init, _ := s.Batch()
	return e.prints(e.build(s, region), init, strings.Join(want, ""))
}

// mutant is a sample rebuilt around a replacement region and assembled
// once. The text does not depend on the valuation, which lives in its own
// initializer unit, so one assembly serves every initializer it is linked
// with. err is the assembler's rejection, if any.
type mutant struct {
	s   *discovery.Sample
	u   *asm.Unit
	err error
}

// build assembles the sample rebuilt around region.
func (e *Engine) build(s *discovery.Sample, region []discovery.Instr) mutant {
	u, err := e.Rig.Assemble(s.Rebuild(region))
	return mutant{s: s, u: u, err: err}
}

// run links m with the initializer init and the helpers and executes the
// image, counting one mutation, under the current analysis too. A
// rejected mutant counts its mutation and fails. A non-empty want is an
// exact reference output and the run goes through Rig.LinkRunExpect
// against it; an empty want runs the full output quorum.
func (e *Engine) run(m mutant, init, want string) (string, error) {
	tr := e.Rig.Trace()
	tr.Count(discovery.CtrMutations, 1)
	tr.Count(e.runs, 1)
	if m.err != nil {
		return "", m.err
	}
	initU, err := e.unit(init)
	if err != nil {
		return "", err
	}
	helpers, err := e.unit(m.s.HelperSource)
	if err != nil {
		return "", err
	}
	if want != "" {
		return e.Rig.LinkRunExpect(want, m.u, initU, helpers)
	}
	return e.Rig.LinkRun(m.u, initU, helpers)
}

// prints reports whether m, linked with the initializer init, prints
// want, an exact reference output.
func (e *Engine) prints(m mutant, init, want string) bool {
	out, err := e.run(m, init, want)
	return err == nil && out == want
}

// same reports whether m reproduces valuation val's expected output.
func (e *Engine) same(m mutant, val int) bool {
	v := m.s.Valuation(val)
	return e.prints(m, v.InitSource, v.ExpectedOut)
}

// sameAll reports whether m reproduces the expected output of every
// valuation: one link and one run of the image that runs them all.
func (e *Engine) sameAll(m mutant) bool {
	init, want := m.s.Batch()
	return e.prints(m, init, want)
}

// fixedClobber is the clobber constant the liveness scan and def/read
// attribution try first, and its negation second, before a random value.
const fixedClobber = 523441

// clobberValues returns n distinct pseudo-random clobber constants. The
// paper's correctness argument (Fig. 6) needs at least two variants with
// different values, so none is 0 or ±fixedClobber: a random value equal
// to a fixed one would leave a three-value verdict with two.
func (e *Engine) clobberValues(n int) []int64 {
	out := make([]int64, n)
	seen := map[int64]bool{0: true, fixedClobber: true, -fixedClobber: true}
	for i := range out {
		for {
			v := int64(e.Rand.Intn(1<<20) - 1<<19)
			if !seen[v] {
				seen[v] = true
				out[i] = v
				break
			}
		}
	}
	return out
}

// ClobberInstr renders the model's clobber template as an instruction.
func (e *Engine) ClobberInstr(reg string, k int64) discovery.Instr {
	line := strings.TrimSpace(e.Model.Clobber(reg, k))
	op := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		op, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	ins := discovery.Instr{Op: op}
	if rest != "" {
		for _, a := range strings.Split(rest, ",") {
			a = strings.TrimSpace(a)
			arg := discovery.Operand{Text: a}
			if e.Model.IsReg(a) {
				arg.Kind = discovery.KReg
				arg.Regs = []string{a}
			} else {
				arg.Kind = discovery.KLit
			}
			ins.Args = append(ins.Args, arg)
		}
	}
	return ins
}

// --- Region editing primitives (the Fig. 5 mutation vocabulary) ---

// Delete removes instruction i (its labels move to the next instruction).
func Delete(region []discovery.Instr, i int) []discovery.Instr {
	out := discovery.CloneInstrs(region)
	labels := out[i].Labels
	out = append(out[:i], out[i+1:]...)
	if len(labels) > 0 && i < len(out) {
		out[i].Labels = append(labels, out[i].Labels...)
	}
	return out
}

// Insert places instruction ins before position i.
func Insert(region []discovery.Instr, i int, ins discovery.Instr) []discovery.Instr {
	out := discovery.CloneInstrs(region)
	out = append(out, discovery.Instr{})
	copy(out[i+1:], out[i:])
	out[i] = ins
	return out
}

// Move relocates instruction from to sit just before position to
// (positions are pre-removal indexes).
func Move(region []discovery.Instr, from, to int) []discovery.Instr {
	out := discovery.CloneInstrs(region)
	ins := out[from]
	ins.Labels = nil // labels stay at the original location
	rest := append(out[:from:from], out[from+1:]...)
	if to > from {
		to--
	}
	rest = append(rest, discovery.Instr{})
	copy(rest[to+1:], rest[to:])
	rest[to] = ins
	if len(region[from].Labels) > 0 && from < len(rest) {
		rest[from].Labels = append(append([]string(nil), region[from].Labels...), rest[from].Labels...)
	}
	return rest
}

// Copy duplicates instruction from to sit just before position to.
func Copy(region []discovery.Instr, from, to int) []discovery.Instr {
	out := discovery.CloneInstrs(region)
	dup := discovery.CloneInstrs(region[from : from+1])[0]
	dup.Labels = nil
	return Insert(out, to, dup)
}

// RenameAt renames reg→to in the instructions whose indexes are listed.
func RenameAt(region []discovery.Instr, idxs []int, reg, to string) []discovery.Instr {
	out := discovery.CloneInstrs(region)
	for _, i := range idxs {
		out[i].RenameReg(reg, to)
	}
	return out
}

// freshRegisters returns candidate replacement registers that do not occur
// anywhere in the region, preferring ones observed as plain operands
// elsewhere in the corpus (general-purpose behavior).
func (e *Engine) freshRegisters(region []discovery.Instr, max int) []string {
	used := map[string]bool{}
	for _, r := range discovery.Registers(region) {
		used[r] = true
	}
	var out []string
	for _, r := range e.Model.Registers {
		if !used[r] {
			out = append(out, r)
			if len(out) >= max {
				break
			}
		}
	}
	return out
}

func describe(region []discovery.Instr) string {
	var sb strings.Builder
	for i, ins := range region {
		fmt.Fprintf(&sb, "%2d: %s\n", i, ins)
	}
	return sb.String()
}
