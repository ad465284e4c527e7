// Package x86 simulates an i386-class toolchain: AT&T syntax (src, dst
// operand order, % register prefix, $ literal prefix, # comments), a
// two-address instruction set with implicit-operand division (cltd/idivl),
// and a stack-based calling convention.
package x86

import (
	"strings"

	"srcg/internal/asm"
)

// Toolchain is the simulated x86 cc/as/ld/run bundle.
type Toolchain struct {
	dialect asm.Dialect
}

// New returns the simulated x86 toolchain.
func New() *Toolchain {
	return &Toolchain{asm.Dialect{
		Arch: "x86",
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
func (t *Toolchain) Name() string { return "x86" }

// Assemble implements target.Toolchain.
func (t *Toolchain) Assemble(text string) (*asm.Unit, error) { return t.dialect.ParseUnit(text) }

// Link implements target.Toolchain.
func (t *Toolchain) Link(units []*asm.Unit) (*asm.Image, error) { return t.dialect.Link(units) }

// registers is the flat i386 register file the assembler accepts.
var registers = map[string]bool{
	"%eax": true, "%ebx": true, "%ecx": true, "%edx": true,
	"%esi": true, "%edi": true, "%ebp": true, "%esp": true,
}

// dataOperand decodes an operand of a data-moving instruction: $imm, $sym,
// %reg, disp(%reg), (%reg), or a bare symbol (absolute memory reference).
// Bare integers are rejected — AT&T immediates always carry '$'.
func dataOperand(d *asm.Dialect, _ string, line int, s string) (asm.Arg, error) {
	if s == "" {
		return asm.Arg{}, d.Errf(line, "empty operand")
	}
	if s[0] == '$' {
		rest := s[1:]
		if v, ok := asm.ParseInt(rest); ok {
			return asm.Arg{Kind: asm.Imm, Imm: v, Raw: s}, nil
		}
		if asm.DefaultValidLabel(rest) {
			return asm.Arg{Kind: asm.Sym, Sym: rest, Raw: s}, nil
		}
		return asm.Arg{}, d.Errf(line, "bad immediate %q", s)
	}
	if s[0] == '%' {
		return asm.Register(d, "", line, s)
	}
	if i := strings.IndexByte(s, '('); i >= 0 {
		return d.BaseDisp(line, s, i)
	}
	if _, ok := asm.ParseInt(s); ok {
		return asm.Arg{}, d.Errf(line, "bare integer operand %q (immediates need $)", s)
	}
	if asm.DefaultValidLabel(s) {
		return asm.Arg{Kind: asm.Mem, Sym: s, Raw: s}, nil
	}
	return asm.Arg{}, d.Errf(line, "bad operand %q", s)
}

const dst = "%s destination must be a register or memory"

var (
	data  = asm.Operand(dataOperand)
	data2 = []asm.Operand{data, data}
)

// ops is the x86 operand table, in AT&T order: source, then destination.
var ops = asm.Table(map[string]asm.Shape{
	"movl addl subl imull andl orl xorl": {Args: data2,
		Checks: []asm.Check{{Arg: 1, Want: asm.Location, Msg: dst}}},
	"cmpl": {Args: data2, Checks: []asm.Check{
		{Arg: 1, Want: asm.Location, Msg: "%s second operand must be a register or memory"}}},
	"sall sarl": {Args: data2, Checks: []asm.Check{
		{Arg: 0, Want: asm.ClassReg | asm.ClassImm, Msg: "%s count must be a register or immediate"},
		{Arg: 1, Want: asm.ClassReg, Msg: "%s destination must be a register"}}},
	"negl notl idivl": {Args: []asm.Operand{data}, Checks: []asm.Check{
		{Arg: 0, Want: asm.Location, Msg: "%s operand must be a register or memory"}}},
	// $imm, $sym, %reg, and mem with an explicit base are legal; a bare
	// symbol (absolute memory push) is not.
	"pushl": {Args: []asm.Operand{data}, Checks: []asm.Check{
		{Arg: 0, Want: ^asm.ClassAbs, Msg: "%s cannot take a bare symbol"}}},
	"popl": {Args: []asm.Operand{data}, Checks: []asm.Check{
		{Arg: 0, Want: asm.ClassReg, Msg: "%s needs a register"}}},
	"leal": {Args: data2, Checks: []asm.Check{
		{Arg: 0, Want: asm.ClassMem | asm.ClassAbs, Msg: "%s source must be a memory operand"},
		{Arg: 1, Want: asm.ClassReg, Msg: "%s destination must be a register"}}},
	"cltd ret":                      {},
	"jmp call je jne jl jle jg jge": {Args: []asm.Operand{asm.Label}},
})
