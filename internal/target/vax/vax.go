// Package vax simulates a VAX-class toolchain: "#" comments, $-prefixed
// literals, memory-to-memory three-operand instructions (addl3 can take
// all its operands from the frame), condition codes set by cmpl/tstl, and
// a calls/ret convention that maintains the argument pointer.
package vax

import (
	"strconv"
	"strings"

	"srcg/internal/asm"
)

// Toolchain is the simulated VAX cc/as/ld/run bundle.
type Toolchain struct {
	dialect asm.Dialect
}

// New returns the simulated VAX toolchain.
func New() *Toolchain {
	return &Toolchain{asm.Dialect{
		Arch: "vax",
		Syntax: asm.Syntax{
			CommentChars: []string{"#"},
			LabelSuffix:  ":",
		},
		Registers: registers,
		Ops:       ops,
		Reserved:  reserved,
	}}
}

// Name implements target.Toolchain.
func (t *Toolchain) Name() string { return "vax" }

// Assemble implements target.Toolchain.
func (t *Toolchain) Assemble(text string) (*asm.Unit, error) { return t.dialect.ParseUnit(text) }

// Link implements target.Toolchain.
func (t *Toolchain) Link(units []*asm.Unit) (*asm.Image, error) { return t.dialect.Link(units) }

// registers is the VAX register file: r0..r11 plus ap, fp, sp.
var registers = map[string]bool{"ap": true, "fp": true, "sp": true}

func init() {
	for i := 0; i < 12; i++ {
		registers["r"+strconv.Itoa(i)] = true
	}
}

// looksLikeReg reports whether s is register-shaped (r followed by
// digits): such tokens are never symbols, so r12 and up are rejected
// rather than read as absolute memory references.
func looksLikeReg(s string) bool {
	if len(s) < 2 || s[0] != 'r' {
		return false
	}
	for _, ch := range s[1:] {
		if ch < '0' || ch > '9' {
			return false
		}
	}
	return true
}

// dataOperand decodes $imm, $sym, a register, disp(reg), (reg), or a bare
// symbol (absolute memory reference). Bare integers are rejected.
func dataOperand(d *asm.Dialect, _ string, line int, s string) (asm.Arg, error) {
	if s == "" {
		return asm.Arg{}, d.Errf(line, "empty operand")
	}
	if s[0] == '$' {
		rest := s[1:]
		if v, ok := asm.ParseInt(rest); ok {
			return asm.Arg{Kind: asm.Imm, Imm: v, Raw: s}, nil
		}
		if asm.DefaultValidLabel(rest) && !looksLikeReg(rest) {
			return asm.Arg{Kind: asm.Sym, Sym: rest, Raw: s}, nil
		}
		return asm.Arg{}, d.Errf(line, "bad immediate %q", s)
	}
	if registers[s] {
		return asm.Arg{Kind: asm.Reg, Reg: s, Raw: s}, nil
	}
	if i := strings.IndexByte(s, '('); i >= 0 {
		return d.BaseDisp(line, s, i)
	}
	if _, ok := asm.ParseInt(s); ok {
		return asm.Arg{}, d.Errf(line, "bare integer operand %q (immediates need $)", s)
	}
	if looksLikeReg(s) {
		return asm.Arg{}, d.Errf(line, "unknown register %q", s)
	}
	if asm.DefaultValidLabel(s) {
		return asm.Arg{Kind: asm.Mem, Sym: s, Raw: s}, nil
	}
	return asm.Arg{}, d.Errf(line, "bad operand %q", s)
}

// reserved keeps $-names and register-shaped names out of branch targets.
func reserved(s string) bool { return asm.DollarPrefixed(s) || looksLikeReg(s) }

const dst = "%s destination must be a register or memory"

var data = asm.Operand(dataOperand)

// ops is the VAX operand table: sources first, destination last.
var ops = asm.Table(map[string]asm.Shape{
	"addl3 subl3 mull3 divl3 bisl3 xorl3 bicl3 ashl": {Args: []asm.Operand{data, data, data},
		Checks: []asm.Check{{Arg: 2, Want: asm.Location, Msg: dst}}},
	"movl addl2 subl2 mcoml mnegl": {Args: []asm.Operand{data, data},
		Checks: []asm.Check{{Arg: 1, Want: asm.Location, Msg: dst}}},
	"moval": {Args: []asm.Operand{data, data}, Checks: []asm.Check{
		{Arg: 1, Want: asm.Location, Msg: dst},
		{Arg: 0, Want: asm.ClassMem | asm.ClassAbs, Msg: "%s source must be a memory operand"}}},
	"cmpl": {Args: []asm.Operand{data, data}},
	"pushl": {Args: []asm.Operand{data}, Checks: []asm.Check{
		{Arg: 0, Want: ^asm.ClassAbs, Msg: "%s cannot take a bare symbol"}}},
	"tstl":                              {Args: []asm.Operand{data}},
	"jbr jeql jneq jlss jleq jgtr jgeq": {Args: []asm.Operand{asm.Label}},
	"calls": {Args: []asm.Operand{data, asm.Label}, Checks: []asm.Check{
		{Arg: 0, Want: asm.ClassImm, Msg: "%s argument count must be an immediate"}}},
	"ret": {},
})
