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
// probed afresh; the only verdict it takes on trust is its sample's base
// valuation, when a CheckBaseline elsewhere already passed it
// (AssumeBaseline).
type Engine struct {
	Rig   *discovery.Rig
	Model *discovery.Model
	Rand  *rand.Rand

	initUnits map[string]*asm.Unit
	baseOK    *discovery.Sample
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
		Rig:       rig,
		Model:     m,
		Rand:      rnd,
		initUnits: map[string]*asm.Unit{},
	}
}

// initUnit assembles (and caches) an initializer unit.
func (e *Engine) initUnit(src string) (*asm.Unit, error) {
	if u, ok := e.initUnits[src]; ok {
		return u, nil
	}
	text, err := e.Rig.CompileAsm(src)
	if err != nil {
		return nil, err
	}
	u, err := e.Rig.Assemble(text)
	if err != nil {
		return nil, err
	}
	e.initUnits[src] = u
	return u, nil
}

// SameOutput assembles the sample with a replacement region once, then
// links and runs it under EVERY valuation, reporting whether all still
// produce the expected outputs. Any failure (assembly rejection, link
// error, runtime fault, wrong output) counts as "behaved differently".
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

// CheckBaseline fails unless the unmutated sample reproduces its expected
// output under valuation val. Unlike a mutant's check it runs the full
// output quorum: this is the baseline mutants are compared against, and
// on a lying machine its disagreeing runs trip the prober's noisy latch.
// The base valuation of an assumed sample (AssumeBaseline) passes
// without a probe.
func (e *Engine) CheckBaseline(s *discovery.Sample, val int) error {
	if val == 0 && s == e.baseOK {
		return nil
	}
	defer e.enter(anBaseline)()
	return e.checkBaseline(e.build(s, s.Region), val)
}

// checkBaselines is CheckBaseline on every valuation of s, sharing one
// assembly of the unmutated sample.
func (e *Engine) checkBaselines(s *discovery.Sample) error {
	first := 0
	if s == e.baseOK {
		first = 1
	}
	if first == s.NumValuations() {
		return nil
	}
	defer e.enter(anBaseline)()
	m := e.build(s, s.Region)
	for val := first; val < s.NumValuations(); val++ {
		if err := e.checkBaseline(m, val); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) checkBaseline(m mutant, val int) error {
	if out, err := e.run(m, val, ""); err != nil || out != m.s.Valuation(val).ExpectedOut {
		return fmt.Errorf("mutate: %s: baseline region does not reproduce expected output", m.s.Name)
	}
	return nil
}

// AssumeBaseline records that the unmutated sample reproduces its expected
// output under its base valuation, as a CheckBaseline on another engine
// found; this engine's own check of that one valuation then passes
// without re-probing.
func (e *Engine) AssumeBaseline(s *discovery.Sample) {
	e.baseOK = s
}

// OutputOf runs the sample with a replacement region under valuation val
// under the full output quorum and returns the raw stdout, for the
// Synthesizer's probes that compare two outputs observed on the machine.
func (e *Engine) OutputOf(s *discovery.Sample, region []discovery.Instr, val int) (string, error) {
	defer e.enter(anSynth)()
	return e.run(e.build(s, region), val, "")
}

// PrintsAll assembles the sample with a replacement region once and
// reports whether it prints want[val] under each valuation val, stopping
// at the first that does not. want holds one exact reference per
// valuation (Rig.LinkRunExpect), such as the output cell's initial value
// that the Synthesizer's jump probe expects once its branch skips the
// store.
func (e *Engine) PrintsAll(s *discovery.Sample, region []discovery.Instr, want []string) bool {
	defer e.enter(anSynth)()
	m := e.build(s, region)
	for val, w := range want {
		if !e.prints(m, val, w) {
			return false
		}
	}
	return true
}

// mutant is a sample rebuilt around a replacement region and assembled
// once. The text does not depend on the valuation, which lives in its own
// initializer unit, so one assembly serves every valuation's link and
// run. err is the assembler's rejection, if any.
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

// run links m with valuation val's initializer and executes it, counting
// one mutation, under the current analysis too. A rejected mutant counts
// its mutation and fails. A non-empty want is an exact reference output
// and the run goes through Rig.LinkRunExpect against it; an empty want
// runs the full output quorum.
func (e *Engine) run(m mutant, val int, want string) (string, error) {
	tr := e.Rig.Trace()
	tr.Count(discovery.CtrMutations, 1)
	tr.Count(e.runs, 1)
	if m.err != nil {
		return "", m.err
	}
	v := m.s.Valuation(val)
	initU, err := e.initUnit(v.InitSource)
	if err != nil {
		return "", err
	}
	if want != "" {
		return e.Rig.LinkRunExpect(want, m.u, initU)
	}
	return e.Rig.LinkRun(m.u, initU)
}

// prints reports whether m prints want, an exact reference output, under
// valuation val.
func (e *Engine) prints(m mutant, val int, want string) bool {
	out, err := e.run(m, val, want)
	return err == nil && out == want
}

// same reports whether m reproduces valuation val's expected output.
func (e *Engine) same(m mutant, val int) bool {
	return e.prints(m, val, m.s.Valuation(val).ExpectedOut)
}

// sameAll reports whether m reproduces the expected output under every
// valuation, stopping at the first that differs.
func (e *Engine) sameAll(m mutant) bool {
	for val := 0; val < m.s.NumValuations(); val++ {
		if !e.same(m, val) {
			return false
		}
	}
	return true
}

// clobberValues returns n distinct pseudo-random clobber constants. The
// paper's correctness argument (Fig. 6) needs at least two variants with
// different values.
func (e *Engine) clobberValues(n int) []int64 {
	out := make([]int64, n)
	seen := map[int64]bool{}
	for i := range out {
		for {
			v := int64(e.Rand.Intn(1<<20) - 1<<19)
			if v != 0 && !seen[v] {
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
