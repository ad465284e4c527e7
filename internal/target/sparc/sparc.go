// Package sparc simulates a SPARC V8-class toolchain: "!" comments,
// bracketed memory operands ([%fp-8]), three-address register operations
// with 13-bit signed immediates, a synthetic `set` instruction for wide
// constants, delayed calls, and millicode .mul/.div/.rem routines.
package sparc

import "srcg/internal/asm"

// Toolchain is the simulated SPARC cc/as/ld/run bundle.
type Toolchain struct {
	dialect asm.Dialect
}

// New returns the simulated SPARC toolchain.
func New() *Toolchain {
	return &Toolchain{asm.Dialect{
		Arch: "sparc",
		Syntax: asm.Syntax{
			CommentChars: []string{"!"},
			LabelSuffix:  ":",
		},
		Registers: registers,
		Ops:       ops,
	}}
}

// Name implements target.Toolchain.
func (t *Toolchain) Name() string { return "sparc" }

// Assemble implements target.Toolchain.
func (t *Toolchain) Assemble(text string) (*asm.Unit, error) { return t.dialect.ParseUnit(text) }

// Link implements target.Toolchain.
func (t *Toolchain) Link(units []*asm.Unit) (*asm.Image, error) { return t.dialect.Link(units) }

// registers is the SPARC register file: globals, outs, locals, and the two
// frame registers. %g0 reads as zero.
var registers = map[string]bool{}

func init() {
	for _, fam := range []string{"%g", "%o", "%l"} {
		for i := 0; i < 8; i++ {
			registers[fam+string(rune('0'+i))] = true
		}
	}
	registers["%fp"] = true
	registers["%sp"] = true
}

// regOrImm13 decodes the second source of a register operation: a register
// or a 13-bit signed immediate.
func regOrImm13(d *asm.Dialect, _ string, line int, s string) (asm.Arg, error) {
	if registers[s] {
		return asm.Arg{Kind: asm.Reg, Reg: s, Raw: s}, nil
	}
	if v, ok := asm.ParseInt(s); ok {
		if v < -4096 || v > 4095 {
			return asm.Arg{}, d.Errf(line, "immediate %d out of 13-bit range", v)
		}
		return asm.Arg{Kind: asm.Imm, Imm: v, Raw: s}, nil
	}
	return asm.Arg{}, d.Errf(line, "bad operand %q", s)
}

// ops is the SPARC operand table: sources first, destination last.
var ops = asm.Table(map[string]asm.Shape{
	"add sub and or xor xnor sll sra": {Args: []asm.Operand{asm.Register, regOrImm13, asm.Register}},
	"ld":                              {Args: []asm.Operand{asm.BracketMem, asm.Register}},
	"st":                              {Args: []asm.Operand{asm.Register, asm.BracketMem}},
	"set":                             {Args: []asm.Operand{asm.ImmOrSym, asm.Register}},
	"cmp":                             {Args: []asm.Operand{asm.Register, regOrImm13}},
	"b call be bne bl ble bg bge":     {Args: []asm.Operand{asm.Label}},
	"retl nop":                        {},
})
