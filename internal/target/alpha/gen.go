package alpha

import (
	"strconv"

	"srcg/internal/cc"
	"srcg/internal/ir"
)

// CompileC implements target.Toolchain: it lowers mini-C to Alpha
// assembly. Named values live in frame slots below $fp; expressions are
// evaluated in $1..$7 with a fresh destination register per operation;
// $16..$18 carry arguments, $0 the return value, and $26 the return
// address. Shift-left results are canonicalized back to 32 bits with an
// `addl rd, 0, rd` after every sll.
func (t *Toolchain) CompileC(src string) (string, error) { return isa.Compile(src) }

var isa = cc.ISA{
	Arch: "alpha",
	Pool: []string{"$1", "$2", "$3", "$4", "$5", "$6", "$7"},
	Args: []string{"$16", "$17", "$18"},
	Ret:  "$0",
	Slot: func(disp int) string { return strconv.Itoa(disp) + "($fp)" },

	Const:      "ldil %s, %d",
	Load:       "ldl %s, %s",
	Store:      "stl %s, %s",
	LoadInd:    "ldl %s, 0(%s)",
	StoreInd:   "stl %s, 0(%s)",
	AddrLocal:  "lda %s, %d($fp)",
	AddrGlobal: "lda %s, %s",
	Move:       "bis %[2]s, $31, %[1]s",
	Neg:        "subl $31, %[2]s, %[1]s",
	Not:        "ornot $31, %[2]s, %[1]s",
	Jump:       "br %s",
	Call:       "jsr $26, %s",
	Ops: map[ir.Op]string{
		ir.Add: "addl", ir.Sub: "subl", ir.Mul: "mull", ir.Div: "divl", ir.Mod: "reml",
		ir.And: "and", ir.Or: "bis", ir.Xor: "xor", ir.Shl: "sll", ir.Shr: "sra",
	},
	Op3: "%[1]s %[3]s, %[4]s, %[2]s",
	// The 64-bit shifter can leave bits above 31: canonicalize the
	// longword with a no-op add, which truncates and re-extends.
	Fixup:    map[ir.Op]string{ir.Shl: "addl %[1]s, 0, %[1]s"},
	Prologue: []string{"lda $sp, %[2]d($sp)", "stl $26, %[3]d($sp)", "stl $fp, %[4]d($sp)", "lda $fp, %[4]d($sp)"},
	Epilogue: []string{"ldl $26, 4($fp)", "lda $sp, 8($fp)", "ldl $fp, 0($fp)", "ret ($26)"},

	Branch: branch,
}

// branch lowers a conditional branch through a compare-into-register:
// cmplt/cmple/cmpeq produce 0 or 1, then bne/beq tests the result. A
// comparison against constant zero for (in)equality branches directly.
func branch(g *cc.LoadStore, st *ir.Stmt) error {
	rA, err := g.EvalReg(st.A)
	if err != nil {
		return err
	}
	if st.B.Op == ir.Const && st.B.Value == 0 && (st.Rel == ir.EQ || st.Rel == ir.NE) {
		op := "beq"
		if st.Rel == ir.NE {
			op = "bne"
		}
		g.Release(rA)
		g.Ins("%s %s, %s", op, rA, st.Target)
		return nil
	}
	rB, err := g.EvalReg(st.B)
	if err != nil {
		return err
	}
	var cmp, br string
	a, b := rA, rB
	switch st.Rel {
	case ir.EQ:
		cmp, br = "cmpeq", "bne"
	case ir.NE:
		cmp, br = "cmpeq", "beq"
	case ir.LT:
		cmp, br = "cmplt", "bne"
	case ir.LE:
		cmp, br = "cmple", "bne"
	case ir.GT:
		cmp, br = "cmplt", "bne"
		a, b = rB, rA
	case ir.GE:
		cmp, br = "cmple", "bne"
		a, b = rB, rA
	}
	t, err := g.Temp()
	if err != nil {
		return err
	}
	g.Ins("%s %s, %s, %s", cmp, a, b, t)
	g.Release(rA)
	g.Release(rB)
	g.Release(t)
	g.Ins("%s %s, %s", br, t, st.Target)
	return nil
}
