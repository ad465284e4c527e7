// Package discovery defines the data model shared by the phases of the
// architecture discovery unit: the Generator, Lexer, Preprocessor,
// Extractor, and Synthesizer (paper Fig. 2). Everything here is built from
// *observations of text and program output only* — no package on the
// discovery side may peek below the target.Toolchain interface.
package discovery

import (
	"fmt"
	"slices"
	"strings"
)

// OperandKind classifies a tokenized operand based on discovered syntax.
type OperandKind int

// Operand kinds, in discovery terms.
const (
	KUnknown  OperandKind = iota
	KReg                  // a verified register token
	KLit                  // an integer literal in a discovered base syntax
	KLabelRef             // reference to a code label defined in the sample
	KMem                  // an addressing-mode expression (may embed regs + literals)
	KSym                  // reference to an external/data symbol
)

func (k OperandKind) String() string {
	switch k {
	case KReg:
		return "reg"
	case KLit:
		return "lit"
	case KLabelRef:
		return "label"
	case KMem:
		return "mem"
	case KSym:
		return "sym"
	}
	return "?"
}

// Operand is one tokenized instruction operand.
type Operand struct {
	Text string
	Kind OperandKind
	Regs []string // register tokens occurring in the operand (base regs for KMem)
	Lit  int64    // literal value for KLit; displacement for KMem (if any)
	Sym  string   // referenced symbol for KLabelRef/KSym
	// ModeShape is the operand text with registers replaced by ⟨r⟩ and
	// literals by ⟨n⟩ — the discovered addressing-mode template.
	ModeShape string
}

// Instr is one tokenized instruction of an extracted sample region.
type Instr struct {
	Labels []string // labels defined at this instruction
	Op     string
	Args   []Operand
	Raw    string
	Line   int // line index into the sample's full assembly text
}

func (i Instr) String() string {
	var sb strings.Builder
	for _, l := range i.Labels {
		sb.WriteString(l + ": ")
	}
	sb.WriteString(i.Op)
	for j, a := range i.Args {
		if j == 0 {
			sb.WriteString(" ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Text)
	}
	return sb.String()
}

// Text renders the instruction as an assembly source line.
func (i Instr) Text() string {
	var sb strings.Builder
	i.writeText(&sb)
	return sb.String()
}

// writeText renders the instruction into sb without intermediate strings —
// Rebuild runs once per mutation, so this is allocation-hot.
func (i Instr) writeText(sb *strings.Builder) {
	for _, l := range i.Labels {
		sb.WriteString(l)
		sb.WriteString(":\n")
	}
	sb.WriteByte('\t')
	sb.WriteString(i.Op)
	for j, a := range i.Args {
		if j == 0 {
			sb.WriteString(" ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Text)
	}
}

// Signature identifies an instruction variant by its operand kinds, e.g.
// "lw:m,r". The paper indexes instructions by signature because the same
// mnemonic may have different semantics for different operand shapes
// (addl $1,%ecx vs addl -8(%ebp),%ecx).
func (i Instr) Signature() string {
	parts := make([]string, len(i.Args))
	for j, a := range i.Args {
		if a.Kind == KSym {
			// External symbols identify the instruction: `call .mul` and
			// `call P` have different semantics (Fig. 15e).
			parts[j] = "sym=" + a.Sym
			continue
		}
		parts[j] = a.Kind.String()
	}
	return i.Op + ":" + strings.Join(parts, ",")
}

// PayloadKind classifies what a sample's payload computes.
type PayloadKind int

// Payload kinds.
const (
	PBinary PayloadKind = iota // a = x OP y
	PUnary                     // a = OP x
	PConst                     // a = K
	PCond                      // if (x REL y) a = K2  (else a keeps K1)
	PCall                      // a = P(args...)
	PStress                    // deeply nested expression for register-set discovery
)

// Sample is one generated C program together with everything the pipeline
// learns about it. CSource/InitSource are the two translation units of the
// Fig. 3 harness, InitSource handing out every valuation in turn (see
// Vals), and HelperSource the procedures call samples call, linked beside
// them.
type Sample struct {
	Name         string
	Kind         PayloadKind
	COp          string // C operator for PBinary/PUnary ("+", "-", ...); relation for PCond
	Payload      string // the C statement(s) between Begin and End
	CSource      string
	InitSource   string
	HelperSource string

	// Operand shape metadata ("b,c", "a,K", "K,b", ...) and the literal
	// embedded in the payload, if any.
	Shape string
	K     int64

	// Vals are the hidden-value assignments the payload runs under, the
	// base valuation first. Mutation verdicts must hold under every
	// valuation — a dead branch under one set of values is alive under
	// another, so the further valuations keep semantically meaningful
	// instructions from being "redundant", and they break value-symmetric
	// misinterpretations in the Extractor.
	Vals []Valuation
	// ExpectedOut is what one execution under InitSource prints: each
	// valuation's expected output in turn. A one-valuation sample's
	// InitSource is Fig. 3's Init and its ExpectedOut Vals[0]'s.
	ExpectedOut string

	// Filled by the Lexer.
	FullAsm             string
	Region              []Instr
	PreLines, PostLines []string // assembly text around the region

}

// Valuation is one assignment of the hidden initialization values and
// the stdout of the unmutated program under it.
type Valuation struct {
	A0, B, C, Expect int64
	ExpectedOut      string
}

// Sensitive reports whether s's valuations do not all print the same
// output. A sample of one valuation is not: it carries no variance.
func (s *Sample) Sensitive() bool {
	return slices.ContainsFunc(s.Vals, func(v Valuation) bool {
		return v.ExpectedOut != s.Vals[0].ExpectedOut
	})
}

// Rebuild reassembles the sample's full text with a replacement region.
func (s *Sample) Rebuild(region []Instr) string {
	n := 0
	for _, l := range s.PreLines {
		n += len(l) + 1
	}
	for _, l := range s.PostLines {
		n += len(l) + 1
	}
	var sb strings.Builder
	sb.Grow(n + 48*len(region))
	for _, l := range s.PreLines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	for _, ins := range region {
		ins.writeText(&sb)
		sb.WriteByte('\n')
	}
	for _, l := range s.PostLines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CloneRegion deep-copies the extracted region for mutation.
func (s *Sample) CloneRegion() []Instr {
	return CloneInstrs(s.Region)
}

// CloneInstrs deep-copies a slice of instructions.
func CloneInstrs(in []Instr) []Instr {
	out := make([]Instr, len(in))
	for i, ins := range in {
		out[i] = ins
		out[i].Labels = append([]string(nil), ins.Labels...)
		out[i].Args = make([]Operand, len(ins.Args))
		for j, a := range ins.Args {
			out[i].Args[j] = a
			out[i].Args[j].Regs = append([]string(nil), a.Regs...)
		}
	}
	return out
}

// RegUse describes how one instruction touches one register.
type RegUse int

// Register reference classes (paper §4.5).
const (
	UsePure RegUse = iota // pure use
	DefPure               // pure definition
	UseDef                // use-definition
)

func (u RegUse) String() string {
	switch u {
	case UsePure:
		return "use"
	case DefPure:
		return "def"
	case UseDef:
		return "use-def"
	}
	return "?"
}

// HiddenChannel records that instruction To reads a hidden value that
// instruction From wrote (the paper's §7.1 third communication class).
type HiddenChannel struct {
	From, To int
	Tag      string // synthesized name, e.g. "hidden1"
}

// Model is everything the discovery unit has learned about a target's
// assembly language and machine before semantic extraction begins.
type Model struct {
	Arch        string
	CommentChar string
	// LitBases maps a numeric base to the literal prefix the assembler
	// accepts for it ("" for decimal).
	LitBases map[int]string
	// LitPrefix is the marker immediates carry in operand position ("$"
	// on x86/VAX, "" on SPARC/MIPS/Alpha).
	LitPrefix string
	// Registers are verified register tokens.
	Registers []string
	// RegSet is the same as a set.
	RegSet map[string]bool
	// Clobber renders "set register r to literal k" using a discovered
	// instruction template.
	Clobber func(reg string, k int64) string
	// ClobberText describes the template for reports, e.g. "movl $<k>, <r>".
	ClobberText string
	// WordBits is the integer width discovered by enquire-style probing.
	WordBits int
	// ImmRange maps "op:argIndex" to the discovered immediate range.
	ImmRange map[string][2]int64
	// Hardwired maps registers with immutable values to those values
	// (SPARC %g0, MIPS $0, Alpha $31 are always zero).
	Hardwired map[string]int64
	// Frame holds the base registers of the variables' cells (§5.2.1's
	// slots). The harness prints a through them after the region.
	Frame []string
	// Modes are the discovered addressing-mode shapes (ModeShape strings).
	Modes []string
}

// IsReg reports whether tok is a verified register.
func (m *Model) IsReg(tok string) bool { return m.RegSet[tok] }

// Stats counts the toolchain interactions a discovery run performed — the
// paper's cost story (§1: "several hours ... 1-2 orders of magnitude
// faster than manual retargeting").
type Stats struct {
	Samples    int
	Compiles   int
	Assemblies int
	Links      int
	Executions int
	Mutations  int
	// Reverse-interpreter search effort.
	CandidatesTried int
	SolvedByMatch   int
	SolvedBySearch  int
	Timeouts        int
}

func (s Stats) String() string {
	return fmt.Sprintf("samples=%d compiles=%d assemblies=%d links=%d executions=%d mutations=%d candidates=%d",
		s.Samples, s.Compiles, s.Assemblies, s.Links, s.Executions, s.Mutations, s.CandidatesTried)
}
