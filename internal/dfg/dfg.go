// Package dfg builds the data-flow graph of §4.6: for every instruction of
// a preprocessed sample it makes explicit where values come from and where
// they go — explicit operands, implicit register arguments recovered by
// mutation analysis, hidden channels (condition codes, MIPS hi/lo), and
// memory cells bound to the source variables (the paper's @L1.a data
// descriptors). The graph doubles as the interpretation program the
// Extractor evaluates (Fig. 13).
package dfg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"srcg/internal/discovery"
	"srcg/internal/mutate"
)

// PortKind classifies ports.
type PortKind int

// Port kinds.
const (
	PReg    PortKind = iota // explicit or implicit register
	PMem                    // memory operand: the port carries an address
	PLit                    // literal operand
	PHidden                 // hidden channel endpoint (condition codes, hi/lo)
)

// ResidueKind classifies why a register definition may legitimately go
// unread within the region: single-pass redundancy elimination (mutation
// analysis, Figs. 5-6) removes instructions one at a time, so a surviving
// definition can be stranded by the removal of its reader. Build records
// the evidence explicitly so the verifier exempts exactly the dead
// definitions elimination can account for — and flags the ones that
// never had a consumer at all.
type ResidueKind int

const (
	// ResidueNone: no elimination evidence touches this definition. A
	// dead definition with no residue annotation indicates a broken
	// graph, whether or not something overwrites it later.
	ResidueNone ResidueKind = iota
	// ResidueEliminatedConsumer: the elimination ledger (Analysis.Removed
	// against RegionPreElim) records a removed instruction after this
	// step that mentioned this register — the definition had a consumer,
	// and redundancy elimination took it.
	ResidueEliminatedConsumer
	// ResidueTwinCarrier: another surviving step computes the same value
	// (same opcode, identical input ports), so the value still reaches
	// its consumers through the twin (b|b loads b twice; eliminating the
	// `or` strands one load).
	ResidueTwinCarrier
)

func (r ResidueKind) String() string {
	switch r {
	case ResidueEliminatedConsumer:
		return "eliminated-consumer"
	case ResidueTwinCarrier:
		return "twin-carrier"
	}
	return "none"
}

// Port is one value endpoint of a step.
type Port struct {
	Kind   PortKind
	Reg    string // PReg
	Addr   string // PMem: address token (normalized operand text)
	Lit    int64  // PLit
	Tag    string // PHidden
	ArgIdx int    // explicit operand index, -1 for implicit/hidden

	// Producer is the index of the step whose output feeds this input
	// port; -1 for external sources (memory, literals, live-in).
	Producer int

	// KeyName overrides the default port key (hidden ports: a producer
	// writing several hidden values gets one key per consumer).
	KeyName string

	// Residue, on PReg output ports, records why this definition may go
	// unread (see ResidueKind). Build sets it from the elimination
	// ledger; hand-built graphs leave it ResidueNone.
	Residue ResidueKind
}

func (p Port) String() string {
	switch p.Kind {
	case PReg:
		if p.ArgIdx < 0 {
			return p.Reg + "(implicit)"
		}
		return p.Reg
	case PMem:
		return "[" + p.Addr + "]"
	case PLit:
		return fmt.Sprintf("#%d", p.Lit)
	default:
		return "<" + p.Tag + ">"
	}
}

// Step is one instruction occurrence with its wired ports.
type Step struct {
	Instr  discovery.Instr
	Sig    string
	Ins    []Port
	Outs   []Port
	Target string   // branch/call target label ("" if none)
	Labels []string // labels defined at this step
}

// Graph is the data-flow graph / interpretation program of one sample.
type Graph struct {
	Sample *discovery.Sample
	Steps  []Step
	Labels map[string]int // label -> step index; absent labels exit the region

	// Variable slot bindings (data descriptors): address tokens for the
	// sample variables a, b, c.
	SlotA, SlotB, SlotC string
}

// Slots carries the variable-to-address bindings discovered from the
// single-variable samples (§5.2.1's "symbolic value" trick, grounded by
// samples like main(){int a=1462;}).
type Slots struct {
	A, B, C string
}

// BindSlots binds the sample variables a, b, c to their memory addresses
// from the regions the lexer extracted: the first constant sample with a
// unique memory operand gives a's slot, the move sample adds b's, and a
// binary sample adds c's (§5.2.1's address-binding trick). It probes
// nothing, so it can run before mutation analysis.
func BindSlots(samples []*discovery.Sample) (Slots, error) {
	var slots Slots
	named := map[string]*discovery.Sample{}
	for _, s := range samples {
		named[s.Name] = s
		if ops := memOperands(s); slots.A == "" && s.Kind == discovery.PConst && len(ops) == 1 {
			slots.A = ops[0]
		}
	}
	if slots.A == "" {
		return slots, fmt.Errorf("dfg: could not bind variable a to a memory cell")
	}
	for _, t := range memOperands(named["int.move.b"]) {
		if t != slots.A {
			slots.B = t
		}
	}
	if slots.B == "" {
		return slots, fmt.Errorf("dfg: could not bind variable b to a memory cell")
	}
	for _, t := range memOperands(named["int.add.b_c"]) {
		if t != slots.A && t != slots.B {
			slots.C = t
		}
	}
	if slots.C == "" {
		return slots, fmt.Errorf("dfg: could not bind variable c to a memory cell")
	}
	return slots, nil
}

// memOperands returns the distinct normalized memory and symbol operands
// of s's region in order of appearance; none for a nil sample.
func memOperands(s *discovery.Sample) []string {
	if s == nil {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	for _, ins := range s.Region {
		for _, arg := range ins.Args {
			if arg.Kind == discovery.KMem || arg.Kind == discovery.KSym {
				t := normalizeAddr(arg.Text)
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
		}
	}
	return out
}

// Build constructs the graph for an analyzed sample.
func Build(m *discovery.Model, a *mutate.Analysis, slots Slots) (*Graph, error) {
	g := &Graph{
		Sample: a.Sample,
		Labels: map[string]int{},
		SlotA:  slots.A, SlotB: slots.B, SlotC: slots.C,
	}
	lastDef := map[string]int{}    // register -> step index of latest definer
	hiddenFrom := map[string]int{} // hidden tag -> producing step

	groupReads := func(reg string, grp int) bool { return containsInt(a.Reads[reg], grp) }
	groupDefs := func(reg string, grp int) bool { return containsInt(a.Defs[reg], grp) }
	groupWritesA := func(grp int) bool {
		span := a.Groups[grp]
		return a.AWriter >= span[0] && a.AWriter < span[1]
	}

	for grp := range a.Groups {
		ins := a.GroupInstr(grp)
		if ins.Op == "" {
			for _, l := range ins.Labels {
				g.Labels[l] = len(g.Steps)
			}
			continue
		}
		if a.Filler[a.Groups[grp][0]] && a.Groups[grp][1]-a.Groups[grp][0] == 1 {
			continue // pure filler group
		}
		st := Step{Instr: *ins, Sig: ins.Signature()}
		span := a.Groups[grp]
		for i := span[0]; i < span[1]; i++ {
			st.Labels = append(st.Labels, a.Region[i].Labels...)
		}
		explicit := map[string]bool{}
		for argIdx, arg := range ins.Args {
			switch arg.Kind {
			case discovery.KLit:
				st.Ins = append(st.Ins, Port{Kind: PLit, Lit: arg.Lit, ArgIdx: argIdx, Producer: -1})
			case discovery.KLabelRef:
				st.Target = arg.Sym
			case discovery.KSym:
				// An external symbol: a call target or a global cell. Call
				// targets become Target; data cells become memory ports.
				if looksLikeCallTarget(ins.Op, argIdx, len(ins.Args)) {
					st.Target = arg.Sym
				} else {
					addMemPort(&st, g, arg.Text, argIdx, groupWritesA(grp))
				}
			case discovery.KMem:
				addMemPort(&st, g, arg.Text, argIdx, groupWritesA(grp))
			case discovery.KReg:
				reg := arg.Regs[0]
				if v, hard := m.Hardwired[reg]; hard {
					// A hardwired register is a constant operand (the
					// paper's missing %g0 feature, implemented here).
					st.Ins = append(st.Ins, Port{Kind: PLit, Lit: v, ArgIdx: argIdx, Producer: -1})
					continue
				}
				explicit[reg] = true
				in := groupReads(reg, grp)
				out := groupDefs(reg, grp)
				if !in && !out {
					// Attribution silent (a value defined and consumed in
					// ways the scan could not separate): default by flow —
					// input if something already defined it, else output.
					if _, defined := lastDef[reg]; defined {
						in = true
					} else {
						out = true
					}
				}
				if in {
					p := Port{Kind: PReg, Reg: reg, ArgIdx: argIdx, Producer: -1}
					if d, ok := lastDef[reg]; ok {
						p.Producer = d
					}
					st.Ins = append(st.Ins, p)
				}
				if out {
					st.Outs = append(st.Outs, Port{Kind: PReg, Reg: reg, ArgIdx: argIdx, Producer: -1})
				}
			}
		}
		// Implicit register arguments recovered by §4.4.
		for _, reg := range sortedRegs(a.Reads) {
			if groupReads(reg, grp) && !explicit[reg] {
				p := Port{Kind: PReg, Reg: reg, ArgIdx: -1, Producer: -1}
				if d, ok := lastDef[reg]; ok {
					p.Producer = d
				}
				st.Ins = append(st.Ins, p)
			}
		}
		for _, reg := range sortedRegs(a.Defs) {
			if groupDefs(reg, grp) && !explicit[reg] {
				st.Outs = append(st.Outs, Port{Kind: PReg, Reg: reg, ArgIdx: -1, Producer: -1})
			}
		}
		// Hidden channels. A producer may feed several distinct hidden
		// values (MIPS div writes both lo and hi); its output keys are
		// therefore split by consumer opcode, while the consumer reads
		// its single value under the uniform key "h".
		for _, h := range a.Hidden {
			if h.From == grp {
				consumer := a.GroupInstr(h.To).Op
				st.Outs = append(st.Outs, Port{Kind: PHidden, Tag: h.Tag, ArgIdx: -1,
					Producer: -1, KeyName: "h." + consumer})
				hiddenFrom[h.Tag] = len(g.Steps)
			}
			if h.To == grp {
				p := Port{Kind: PHidden, Tag: h.Tag, ArgIdx: -1, Producer: -1, KeyName: "h"}
				if d, ok := hiddenFrom[h.Tag]; ok {
					p.Producer = d
				}
				st.Ins = append(st.Ins, p)
			}
		}
		for _, l := range st.Labels {
			g.Labels[l] = len(g.Steps)
		}
		for _, o := range st.Outs {
			if o.Kind == PReg {
				lastDef[o.Reg] = len(g.Steps)
			}
		}
		g.Steps = append(g.Steps, st)
	}
	if len(g.Steps) == 0 {
		return nil, fmt.Errorf("dfg: %s: no steps", a.Sample.Name)
	}
	g.wireConditionCodes()
	annotateResidue(g, a)
	// The reverse-interpretation search calls Key() for every port of
	// every step on every candidate trial; resolve each key once here so
	// the inner loop reads a field instead of formatting a string.
	for i := range g.Steps {
		st := &g.Steps[i]
		for j := range st.Ins {
			st.Ins[j].KeyName = st.Ins[j].Key()
		}
		for j := range st.Outs {
			st.Outs[j].KeyName = st.Outs[j].Key()
		}
	}
	return g, nil
}

// annotateResidue marks register output ports with the elimination
// evidence that can account for them going unread: a removed consumer in
// the elimination ledger, or a surviving twin computing the same value.
func annotateResidue(g *Graph, a *mutate.Analysis) {
	removed := map[int]bool{} // original source lines eliminated as redundant
	for _, line := range a.Removed {
		removed[line] = true
	}
	for i := range g.Steps {
		st := &g.Steps[i]
		for pi := range st.Outs {
			p := &st.Outs[pi]
			if p.Kind != PReg {
				continue
			}
			switch {
			case eliminatedConsumer(a, removed, st.Instr.Line, p.Reg):
				p.Residue = ResidueEliminatedConsumer
			case twinOf(g, i) >= 0:
				p.Residue = ResidueTwinCarrier
			}
		}
	}
}

// eliminatedConsumer reports whether the elimination ledger records a
// removed instruction after defLine that mentioned reg — evidence the
// definition had a consumer before redundancy elimination.
func eliminatedConsumer(a *mutate.Analysis, removed map[int]bool, defLine int, reg string) bool {
	for idx := range a.RegionPreElim {
		ins := &a.RegionPreElim[idx]
		if ins.Line > defLine && removed[ins.Line] && ins.UsesReg(reg) {
			return true
		}
	}
	return false
}

// twinOf returns the index of another step computing the same value as
// step i — same opcode, identical input ports — or -1.
func twinOf(g *Graph, i int) int {
	for j := range g.Steps {
		if j == i {
			continue
		}
		if g.Steps[j].Instr.Op == g.Steps[i].Instr.Op &&
			samePorts(g.Steps[j].Ins, g.Steps[i].Ins) {
			return j
		}
	}
	return -1
}

func samePorts(a, b []Port) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Reg != b[i].Reg ||
			a[i].Addr != b[i].Addr || a[i].Lit != b[i].Lit ||
			a[i].Tag != b[i].Tag {
			return false
		}
	}
	return true
}

// wireConditionCodes handles the paper's condition-code special case
// (§7.1): a branch with no input ports must take its direction from
// somewhere; the nearest preceding instruction with no outputs at all
// (it survived redundant-instruction elimination, so it *does* something —
// just nothing visible) is its hidden producer. This wires x86 cmpl→jcc,
// SPARC cmp→bcc, and VAX tstl/cmpl→jcc pairs.
func (g *Graph) wireConditionCodes() {
	for i := range g.Steps {
		br := &g.Steps[i]
		if br.Target == "" || len(br.Ins) != 0 || len(br.Outs) != 0 {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			src := &g.Steps[j]
			if src.Target != "" || len(src.Outs) != 0 {
				continue
			}
			tag := fmt.Sprintf("cc%d", j)
			src.Outs = append(src.Outs, Port{Kind: PHidden, Tag: tag, ArgIdx: -1,
				Producer: -1, KeyName: "h." + br.Instr.Op})
			br.Ins = append(br.Ins, Port{Kind: PHidden, Tag: tag, ArgIdx: -1,
				Producer: j, KeyName: "h"})
			break
		}
	}
}

// addMemPort wires a memory operand: the a-slot is written only by the
// instruction the §4 memory-writer probe identified (and stays readable —
// CISC use-definition forms read it too); all cells are read.
func addMemPort(st *Step, g *Graph, text string, argIdx int, writesA bool) {
	addr := normalizeAddr(text)
	st.Ins = append(st.Ins, Port{Kind: PMem, Addr: addr, ArgIdx: argIdx, Producer: -1})
	if addr == g.SlotA && writesA {
		st.Outs = append(st.Outs, Port{Kind: PMem, Addr: addr, ArgIdx: argIdx, Producer: -1})
	}
}

// normalizeAddr canonicalizes an address operand's text.
func normalizeAddr(text string) string {
	t := strings.ReplaceAll(text, " ", "")
	t = strings.TrimPrefix(t, "[")
	t = strings.TrimSuffix(t, "]")
	t = strings.ReplaceAll(t, "+-", "-")
	return t
}

// NormalizeAddr is the exported canonicalization used when binding slots.
func NormalizeAddr(text string) string { return normalizeAddr(text) }

// looksLikeCallTarget decides whether a symbol operand is a control target:
// it is the only operand, or the opcode's other operands are registers
// carrying the link (jsr $26, P).
func looksLikeCallTarget(op string, argIdx, nargs int) bool {
	// A symbol in the last position of a 1- or 2-operand instruction whose
	// other operand (if any) is not data-addressed: treat as target. Data
	// references to globals never appear in our samples' regions, so this
	// conservative rule is exact there.
	return argIdx == nargs-1
}

// Deps computes, per step, which of the sample variables (b, c) its inputs
// transitively depend on — the path analysis of §5.1.
func (g *Graph) Deps() []map[string]bool {
	deps := make([]map[string]bool, len(g.Steps))
	for i, st := range g.Steps {
		d := map[string]bool{}
		for _, in := range st.Ins {
			switch {
			case in.Kind == PMem && in.Addr == g.SlotB:
				d["b"] = true
			case in.Kind == PMem && in.Addr == g.SlotC:
				d["c"] = true
			case in.Kind == PMem && in.Addr == g.SlotA:
				d["a"] = true
			case in.Producer >= 0:
				for k := range deps[in.Producer] {
					d[k] = true
				}
			}
		}
		deps[i] = d
	}
	return deps
}

// Dump renders the graph for documentation (the paper's automatically
// generated graph drawings).
func (g *Graph) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sample %s (a=%s b=%s c=%s)\n", g.Sample.Name, g.SlotA, g.SlotB, g.SlotC)
	for i, st := range g.Steps {
		fmt.Fprintf(&sb, "%2d: %-30s", i, st.Instr.String())
		var ins, outs []string
		for _, p := range st.Ins {
			src := "ext"
			if p.Producer >= 0 {
				src = fmt.Sprintf("#%d", p.Producer)
			}
			ins = append(ins, p.String()+"<-"+src)
		}
		for _, p := range st.Outs {
			outs = append(outs, p.String())
		}
		fmt.Fprintf(&sb, " in:[%s] out:[%s]", strings.Join(ins, " "), strings.Join(outs, " "))
		if st.Target != "" {
			fmt.Fprintf(&sb, " ->%s", st.Target)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func sortedRegs(m map[string][]int) []string {
	out := make([]string, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Key is the stable identity of a port across samples: explicit operands
// by position, implicit registers by name, hidden channels collectively.
func (p Port) Key() string {
	switch {
	case p.KeyName != "":
		return p.KeyName
	case p.Kind == PHidden:
		return "h"
	case p.ArgIdx >= 0:
		return "a" + strconv.Itoa(p.ArgIdx)
	default:
		return "r" + p.Reg
	}
}

// Dot renders the graph in Graphviz format — the paper notes that "all the
// graph drawings shown in this paper were generated automatically as part
// of the documentation produced by the architecture discovery system."
func (g *Graph) Dot() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n", g.Sample.Name)
	fmt.Fprintf(&sb, "  node [shape=box];\n")
	varName := func(addr string) string {
		switch addr {
		case g.SlotA:
			return "@L1.a"
		case g.SlotB:
			return "@L1.b"
		case g.SlotC:
			return "@L1.c"
		}
		return addr
	}
	for i, st := range g.Steps {
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", i, fmt.Sprintf("%s (%d)", st.Instr.Op, i))
		for _, p := range st.Ins {
			switch {
			case p.Kind == PMem:
				fmt.Fprintf(&sb, "  %q -> n%d [label=%q];\n", varName(p.Addr), i, p.Key())
			case p.Producer >= 0:
				fmt.Fprintf(&sb, "  n%d -> n%d [label=%q];\n", p.Producer, i, p.String())
			case p.Kind == PLit:
				fmt.Fprintf(&sb, "  %q -> n%d;\n", fmt.Sprintf("#%d", p.Lit), i)
			default:
				fmt.Fprintf(&sb, "  %q -> n%d [style=dashed];\n", p.String(), i)
			}
		}
		for _, p := range st.Outs {
			if p.Kind == PMem {
				fmt.Fprintf(&sb, "  n%d -> %q;\n", i, varName(p.Addr))
			}
		}
		if st.Target != "" {
			fmt.Fprintf(&sb, "  n%d -> %q [style=dotted];\n", i, st.Target)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
