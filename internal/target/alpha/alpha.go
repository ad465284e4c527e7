// Package alpha simulates an Alpha-class toolchain: "#" comments,
// dollar-numbered registers, operate-format instructions whose second
// source is a register or an 8-bit literal (0..255), ldil constant
// synthesis, compare-into-register conditionals, and jsr/ret linkage
// through $26.
package alpha

import (
	"strconv"

	"srcg/internal/asm"
)

// Toolchain is the simulated Alpha cc/as/ld/run bundle.
type Toolchain struct {
	dialect asm.Dialect
}

// New returns the simulated Alpha toolchain.
func New() *Toolchain {
	return &Toolchain{asm.Dialect{
		Arch: "alpha",
		Syntax: asm.Syntax{
			CommentChars: []string{"#"},
			LabelSuffix:  ":",
		},
		Registers: registers,
		Ops:       ops,
		Reserved:  asm.DollarPrefixed,
	}}
}

// Name implements target.Toolchain.
func (t *Toolchain) Name() string { return "alpha" }

// Assemble implements target.Toolchain.
func (t *Toolchain) Assemble(text string) (*asm.Unit, error) { return t.dialect.ParseUnit(text) }

// Link implements target.Toolchain.
func (t *Toolchain) Link(units []*asm.Unit) (*asm.Image, error) { return t.dialect.Link(units) }

// registers is the Alpha register file: $0..$31 plus the $sp/$fp aliases.
// $31 reads as zero. Every $-name is register syntax.
var registers = map[string]bool{"$sp": true, "$fp": true}

func init() {
	for i := 0; i < 32; i++ {
		registers["$"+strconv.Itoa(i)] = true
	}
}

// regOrLit8 decodes the second source of an operate-format instruction: a
// register or a literal in 0..255.
func regOrLit8(d *asm.Dialect, _ string, line int, s string) (asm.Arg, error) {
	if registers[s] {
		return asm.Arg{Kind: asm.Reg, Reg: s, Raw: s}, nil
	}
	if v, ok := asm.ParseInt(s); ok {
		if v < 0 || v > 255 {
			return asm.Arg{}, d.Errf(line, "operate literal %d out of range 0..255", v)
		}
		return asm.Arg{Kind: asm.Imm, Imm: v, Raw: s}, nil
	}
	return asm.Arg{}, d.Errf(line, "bad operand %q", s)
}

// ops is the Alpha operand table. Operate-format instructions read
// op ra, rb_or_lit, rc.
var ops = asm.Table(map[string]asm.Shape{
	"addl subl mull divl reml and bis xor ornot sll sra cmpeq cmplt cmple": {
		Args: []asm.Operand{asm.Register, regOrLit8, asm.Register}},
	"ldl stl lda": {Args: []asm.Operand{asm.Register, asm.ParenMem}},
	"ldil":        {Args: []asm.Operand{asm.Register, asm.Immediate}},
	"beq bne jsr": {Args: []asm.Operand{asm.Register, asm.Label}},
	"br":          {Args: []asm.Operand{asm.Label}},
	"ret":         {Args: []asm.Operand{asm.RegIndirect}},
})
