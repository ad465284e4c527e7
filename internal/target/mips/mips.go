// Package mips simulates a MIPS R3000-class toolchain: "#" comments,
// dollar-numbered registers, three-address register operations, li/la
// constant synthesis, absolute-symbol memory operands, and the hidden
// hi/lo registers behind mult/div (read back with mflo/mfhi).
package mips

import (
	"strconv"

	"srcg/internal/asm"
)

// Toolchain is the simulated MIPS cc/as/ld/run bundle.
type Toolchain struct {
	dialect asm.Dialect
}

// New returns the simulated MIPS toolchain.
func New() *Toolchain {
	return &Toolchain{asm.Dialect{
		Arch: "mips",
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
func (t *Toolchain) Name() string { return "mips" }

// Assemble implements target.Toolchain.
func (t *Toolchain) Assemble(text string) (*asm.Unit, error) { return t.dialect.ParseUnit(text) }

// Link implements target.Toolchain.
func (t *Toolchain) Link(units []*asm.Unit) (*asm.Image, error) { return t.dialect.Link(units) }

// registers is the MIPS register file: $0..$31 plus the $sp/$fp aliases.
// $0 reads as zero. Every $-name is register syntax.
var registers = map[string]bool{"$sp": true, "$fp": true}

func init() {
	for i := 0; i < 32; i++ {
		registers["$"+strconv.Itoa(i)] = true
	}
}

// regOrImm decodes the third source of addu/subu: a register or a (full
// range) immediate.
func regOrImm(d *asm.Dialect, _ string, line int, s string) (asm.Arg, error) {
	if registers[s] {
		return asm.Arg{Kind: asm.Reg, Reg: s, Raw: s}, nil
	}
	if v, ok := asm.ParseInt(s); ok {
		return asm.Arg{Kind: asm.Imm, Imm: v, Raw: s}, nil
	}
	return asm.Arg{}, d.Errf(line, "bad operand %q", s)
}

// ops is the MIPS operand table.
var ops = asm.Table(map[string]asm.Shape{
	"add and or xor nor sllv srav": {Args: []asm.Operand{asm.Register, asm.Register, asm.Register}},
	"addu subu":                    {Args: []asm.Operand{asm.Register, asm.Register, regOrImm}},
	"lw sw":                        {Args: []asm.Operand{asm.Register, asm.ParenMem}},
	"li":                           {Args: []asm.Operand{asm.Register, asm.Immediate}},
	"la":                           {Args: []asm.Operand{asm.Register, asm.Address}},
	"mult div":                     {Args: []asm.Operand{asm.Register, asm.Register}},
	"mflo mfhi jr":                 {Args: []asm.Operand{asm.Register}},
	"beq bne blt ble bgt bge":      {Args: []asm.Operand{asm.Register, asm.Register, asm.Label}},
	"j jal":                        {Args: []asm.Operand{asm.Label}},
})
