package synth

import (
	"fmt"
	"sort"
	"strings"

	"srcg/internal/dfg"
	"srcg/internal/discovery"
	"srcg/internal/ir"
	"srcg/internal/mutate"
)

// Input bundles what the Synthesizer consumes from the earlier phases.
type Input struct {
	Rig      *discovery.Rig
	Model    *discovery.Model
	Engine   *mutate.Engine
	Samples  map[string]*discovery.Sample
	Analyses map[string]*mutate.Analysis
	Slots    dfg.Slots
	Solved   map[string]bool // sample names whose semantics were extracted
}

// irOpSample maps intermediate operations to the sample whose region
// realizes them.
var irOpSample = map[ir.Op]string{
	ir.Add: "int.add.b_c", ir.Sub: "int.sub.b_c", ir.Mul: "int.mul.b_c",
	ir.Div: "int.div.b_c", ir.Mod: "int.mod.b_c", ir.And: "int.and.b_c",
	ir.Or: "int.or.b_c", ir.Xor: "int.xor.b_c", ir.Shl: "int.shl.b_c",
	ir.Shr: "int.shr.b_c", ir.Neg: "int.neg.b", ir.Not: "int.not.b",
}

// negRel maps an intermediate branch relation to the C relation whose
// sample *branches* on it (the sample for `if (b != c)` branches around on
// ==, so its region is the BranchEQ template — the Combiner pairing of §6).
var negRel = map[ir.Rel]string{
	ir.EQ: "ne", ir.NE: "eq", ir.LT: "ge", ir.LE: "gt", ir.GT: "le", ir.GE: "lt",
}

// Synthesize builds the machine description.
func Synthesize(in Input) (*Spec, error) {
	s := &Spec{
		Arch:     in.Model.Arch,
		WordBits: in.Model.WordBits,
		Ops:      map[ir.Op]*Template{},
		Branches: map[ir.Rel]*Template{},
		Calls:    map[int]*Template{},
		Callees:  map[int]*CalleeModel{},
	}

	// Sorted iteration throughout: opTemplate and friends probe the
	// toolchain, and the probe sequence must be identical run to run.
	ops := make([]ir.Op, 0, len(irOpSample))
	for op := range irOpSample {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		t, err := in.opTemplate(irOpSample[op], op.String())
		if err != nil {
			s.Gaps = append(s.Gaps, op.String())
			continue
		}
		s.Ops[op] = t
	}
	if t, err := in.opTemplate("int.move.b", "Move"); err == nil {
		s.Move = t
	} else {
		s.Gaps = append(s.Gaps, "Move")
	}
	if t, err := in.constTemplate(); err == nil {
		s.Const = t
	} else {
		s.Gaps = append(s.Gaps, "Const")
	}
	rels := make([]ir.Rel, 0, len(negRel))
	for rel := range negRel {
		rels = append(rels, rel)
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i] < rels[j] })
	for _, rel := range rels {
		t, err := in.branchTemplate(negRel[rel], "Branch"+rel.String())
		if err != nil {
			s.Gaps = append(s.Gaps, "Branch"+rel.String())
			continue
		}
		s.Branches[rel] = t
	}
	if t, err := in.jumpTemplate(); err == nil {
		s.Jump = t
	} else {
		s.Gaps = append(s.Gaps, "Jump")
	}
	for n, name := range []string{"int.call.none", "int.call.b", "int.call.b_c"} {
		t, err := in.callTemplate(name, n)
		if err != nil {
			s.Gaps = append(s.Gaps, fmt.Sprintf("Call%d", n))
			continue
		}
		s.Calls[n] = t
	}
	sort.Strings(s.Gaps)

	if err := in.discoverMain(s); err != nil {
		return nil, err
	}
	if err := in.discoverCallees(s); err != nil {
		return nil, err
	}
	in.deriveChains(s)
	// Synthesis telemetry on the run's shared tracer: how much of the
	// machine description materialized, and where the gaps are.
	tr := in.Rig.Trace()
	tr.Count("synth.op_templates", int64(len(s.Ops)))
	tr.Count("synth.branch_templates", int64(len(s.Branches)))
	tr.Count("synth.call_templates", int64(len(s.Calls)))
	tr.Count("synth.gaps", int64(len(s.Gaps)))
	return s, nil
}

// analyzed fetches a sample's analysis, requiring extraction success.
func (in Input) analyzed(name string) (*discovery.Sample, *mutate.Analysis, error) {
	s, ok := in.Samples[name]
	if !ok {
		return nil, nil, fmt.Errorf("synth: no sample %s", name)
	}
	a, ok := in.Analyses[name]
	if !ok {
		return nil, nil, fmt.Errorf("synth: sample %s was not analyzed", name)
	}
	if in.Solved != nil && !in.Solved[name] {
		return nil, nil, fmt.Errorf("synth: sample %s has no verified semantics", name)
	}
	return s, a, nil
}

// substSlots rewrites slot operands to placeholders in a cloned region.
func (in Input) substSlots(region []discovery.Instr, sub map[string]string) []discovery.Instr {
	out := discovery.CloneInstrs(region)
	for i := range out {
		for j := range out[i].Args {
			arg := &out[i].Args[j]
			if arg.Kind != discovery.KMem && arg.Kind != discovery.KSym {
				continue
			}
			if repl, ok := sub[dfg.NormalizeAddr(arg.Text)]; ok {
				arg.Text = repl
			}
		}
	}
	return out
}

// templateLines renders a region as template lines (labels stripped — they
// are sample-local).
func templateLines(region []discovery.Instr) ([]string, int) {
	var lines []string
	n := 0
	for _, ins := range region {
		if ins.Op == "" {
			continue
		}
		bare := ins
		bare.Labels = nil
		lines = append(lines, bare.Text())
		n++
	}
	return lines, n
}

// opTemplate extracts the template realizing `dst = src1 OP src2` (or the
// unary/move `dst = OP src1`) from a sample's analyzed region.
func (in Input) opTemplate(sampleName, tmplName string) (*Template, error) {
	_, a, err := in.analyzed(sampleName)
	if err != nil {
		return nil, err
	}
	region := in.substSlots(a.Region, map[string]string{
		in.Slots.B: "{src1}",
		in.Slots.C: "{src2}",
		in.Slots.A: "{dst}",
	})
	lines, n := templateLines(region)
	return &Template{Name: tmplName, Lines: lines, Instrs: n}, nil
}

// constTemplate extracts `dst = k` from the distinctive-constant sample.
func (in Input) constTemplate() (*Template, error) {
	s, a, err := in.analyzed("int.const.34117")
	if err != nil {
		return nil, err
	}
	region := in.substSlots(a.Region, map[string]string{in.Slots.A: "{dst}"})
	for i := range region {
		for j := range region[i].Args {
			arg := &region[i].Args[j]
			if arg.Kind == discovery.KLit && arg.Lit == s.K {
				arg.Text = strings.Replace(arg.Text, "34117", "{k}", 1)
			}
		}
	}
	lines, n := templateLines(region)
	return &Template{Name: "Const", Lines: lines, Instrs: n}, nil
}

// branchTemplate extracts `if (src1 REL src2) goto label` from the
// conditional sample that branches on REL: everything in the region except
// the guarded store, with the branch target abstracted.
func (in Input) branchTemplate(cRel, tmplName string) (*Template, error) {
	_, a, err := in.analyzed("int.cond." + cRel + ".lt")
	if err != nil {
		// Any flavor will do.
		if _, a, err = in.analyzed("int.cond." + cRel + ".gt"); err != nil {
			return nil, err
		}
	}
	region := in.substSlots(a.Region, map[string]string{
		in.Slots.B: "{src1}",
		in.Slots.C: "{src2}",
	})
	var kept []discovery.Instr
	branched := false
	for _, ins := range region {
		if ins.Op == "" {
			continue
		}
		if branched {
			// The branch semantically ends the template; what follows is
			// the guarded statement — except operand-less padding, which
			// may be filling a delay slot (SPARC's nop) and must stay.
			if len(ins.Args) != 0 {
				continue
			}
			kept = append(kept, ins)
			continue
		}
		for j := range ins.Args {
			if ins.Args[j].Kind == discovery.KLabelRef {
				ins.Args[j].Text = "{label}"
				branched = true
			}
		}
		kept = append(kept, ins)
	}
	lines, n := templateLines(kept)
	if n == 0 {
		return nil, fmt.Errorf("synth: empty branch template for %s", cRel)
	}
	return &Template{Name: tmplName, Lines: lines, Instrs: n}, nil
}

// callTemplate extracts `dst = fn(src1, ...)` from a call sample.
func (in Input) callTemplate(sampleName string, nargs int) (*Template, error) {
	_, a, err := in.analyzedCall(sampleName)
	if err != nil {
		return nil, err
	}
	// Use the pre-elimination region: an argument push whose stack cell
	// happens to alias a sample variable's slot is invisible to mutation
	// analysis, but very much required by the convention.
	region := in.substSlots(a.RegionPreElim, map[string]string{
		in.Slots.B: "{src1}",
		in.Slots.C: "{src2}",
		in.Slots.A: "{dst}",
	})
	for i := range region {
		for j := range region[i].Args {
			arg := &region[i].Args[j]
			if arg.Kind == discovery.KSym && strings.HasPrefix(arg.Sym, "P") {
				arg.Text = "{fn}"
			}
		}
	}
	lines, n := templateLines(region)
	return &Template{Name: fmt.Sprintf("Call%d", nargs), Lines: lines, Instrs: n}, nil
}

// analyzedCall is analyzed() without the solved-semantics requirement
// (calls to arbitrary procedures are convention templates, not semantics).
func (in Input) analyzedCall(name string) (*discovery.Sample, *mutate.Analysis, error) {
	s, ok := in.Samples[name]
	if !ok {
		return nil, nil, fmt.Errorf("synth: no sample %s", name)
	}
	a, ok := in.Analyses[name]
	if !ok {
		return nil, nil, fmt.Errorf("synth: sample %s was not analyzed", name)
	}
	return s, a, nil
}

// jumpTemplate discovers the unconditional branch: candidate opcodes are
// the label-target instructions of the harness's goto maze, validated by
// substituting them for a conditional branch and observing that the guard
// is now always taken (the store is always skipped).
func (in Input) jumpTemplate() (*Template, error) {
	s, a, err := in.analyzed("int.cond.lt.lt")
	if err != nil {
		return nil, err
	}
	// Candidate opcodes by frequency across one full text.
	freq := map[string]int{}
	labels := map[string]bool{}
	lines := strings.Split(s.FullAsm, "\n")
	type cand struct {
		op string
		n  int
	}
	for _, raw := range lines {
		t := strings.TrimSpace(raw)
		if i := strings.Index(t, ":"); i >= 0 && !strings.ContainsAny(t[:i], " \t") {
			labels[t[:i]] = true
		}
	}
	for _, raw := range lines {
		t := strings.TrimSpace(raw)
		parts := strings.Fields(t)
		if len(parts) == 2 && labels[parts[1]] {
			freq[parts[0]]++
		}
	}
	var cands []cand
	for op, n := range freq {
		cands = append(cands, cand{op, n})
	}
	// Tiebreak on the opcode name: equal counts must not leave the probe
	// order to the map iteration above.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].op < cands[j].op
	})

	// The probe region: the conditional sample with its branch replaced.
	branchIdx := -1
	var target string
	for i, ins := range a.Region {
		for _, arg := range ins.Args {
			if arg.Kind == discovery.KLabelRef {
				branchIdx = i
				target = arg.Sym
			}
		}
	}
	if branchIdx < 0 {
		return nil, fmt.Errorf("synth: no branch in conditional region")
	}
	// An unconditional branch skips the store under every valuation, so
	// the program prints the output cell's initial value: an exact
	// reference.
	var want []string
	for _, v := range s.Vals {
		want = append(want, fmt.Sprintf("%d\n", int32(v.A0)))
	}
	for _, c := range cands {
		region := discovery.CloneInstrs(a.Region)
		region[branchIdx] = discovery.Instr{
			Op:     c.op,
			Labels: region[branchIdx].Labels,
			Args: []discovery.Operand{{
				Text: target, Kind: discovery.KLabelRef, Sym: target,
			}},
		}
		if in.Engine.PrintsAll(s, region, want) {
			return &Template{Name: "Jump", Lines: []string{"\t" + c.op + " {label}"}, Instrs: 1}, nil
		}
	}
	return nil, fmt.Errorf("synth: no unconditional branch discovered")
}
