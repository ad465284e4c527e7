package mips

import (
	"strconv"

	"srcg/internal/cc"
	"srcg/internal/ir"
)

// CompileC implements target.Toolchain: it lowers mini-C to MIPS
// assembly. Named values live in frame slots below $fp; expressions are
// evaluated in $8..$15 with a fresh destination register per operation;
// $4..$6 carry arguments and $2 the return value. Multiplication and
// division run through the hidden hi/lo registers via mult/div +
// mflo/mfhi.
func (t *Toolchain) CompileC(src string) (string, error) { return isa.Compile(src) }

var isa = cc.ISA{
	Arch: "mips",
	Pool: []string{"$8", "$9", "$10", "$11", "$12", "$13", "$14", "$15"},
	Args: []string{"$4", "$5", "$6"},
	Ret:  "$2",
	Zero: "$0",
	Slot: func(disp int) string { return strconv.Itoa(disp) + "($fp)" },

	Const:      "li %s, %d",
	Load:       "lw %s, %s",
	Store:      "sw %s, %s",
	LoadInd:    "lw %s, 0(%s)",
	StoreInd:   "sw %s, 0(%s)",
	AddrLocal:  "addu %s, $fp, %d",
	AddrGlobal: "la %s, %s",
	Move:       "addu %s, %s, $0",
	Neg:        "subu %s, $0, %s",
	Not:        "nor %s, %s, $0",
	Jump:       "j %s",
	Call:       "jal %s",
	Ops: map[ir.Op]string{
		ir.Add: "add", ir.Sub: "subu", ir.And: "and", ir.Or: "or", ir.Xor: "xor",
		ir.Shl: "sllv", ir.Shr: "srav",
	},
	Op3: "%s %s, %s, %s",
	Bcc: map[ir.Rel]string{
		ir.EQ: "beq %s, %s, %s", ir.NE: "bne %s, %s, %s", ir.LT: "blt %s, %s, %s",
		ir.LE: "ble %s, %s, %s", ir.GT: "bgt %s, %s, %s", ir.GE: "bge %s, %s, %s",
	},
	Prologue: []string{"subu $sp, $sp, %[1]d", "sw $31, %[3]d($sp)", "sw $fp, %[4]d($sp)", "addu $fp, $sp, %[4]d"},
	Epilogue: []string{"lw $31, 4($fp)", "addu $sp, $fp, 8", "lw $fp, 0($fp)", "jr $31"},

	MulDiv: mulDiv,
}

// mulDiv routes multiplication and division through the hidden hi/lo
// registers: mult/div write them, mflo/mfhi read them back.
func mulDiv(g *cc.LoadStore, n *ir.Node) (string, error) {
	l, r, err := g.Operands(n, 2)
	if err != nil {
		return "", err
	}
	if n.Op == ir.Mul {
		g.Ins("mult %s, %s", l, r)
	} else {
		g.Ins("div %s, %s", l, r)
	}
	d, err := g.Temp()
	if err != nil {
		return "", err
	}
	if n.Op == ir.Mod {
		g.Ins("mfhi %s", d)
	} else {
		g.Ins("mflo %s", d)
	}
	g.Release(l)
	g.Release(r)
	return d, nil
}
