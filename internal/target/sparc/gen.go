package sparc

import (
	"fmt"

	"srcg/internal/cc"
	"srcg/internal/ir"
)

// CompileC implements target.Toolchain: it lowers mini-C to SPARC
// assembly. All named values live in frame slots below %fp; expressions
// are evaluated in the %l registers; %o0/%o1 carry arguments to the
// millicode multiply/divide routines and to functions; %g1 stages
// global-variable addresses.
func (t *Toolchain) CompileC(src string) (string, error) { return isa.Compile(src) }

var isa = cc.ISA{
	Arch: "sparc",
	Pool: []string{"%l0", "%l1", "%l2", "%l3", "%l4", "%l5", "%l6", "%l7"},
	Args: []string{"%o0", "%o1", "%o2"},
	Ret:  "%o0",
	// Slots lie below %fp, so disp is negative.
	Slot:  func(disp int) string { return fmt.Sprintf("[%%fp%+d]", disp) },
	Stage: "%g1",

	Const:      "set %[2]d, %[1]s",
	Load:       "ld %[2]s, %[1]s",
	Store:      "st %s, %s",
	LoadInd:    "ld [%[2]s], %[1]s",
	StoreInd:   "st %s, [%s]",
	AddrLocal:  "add %%fp, %[2]d, %[1]s",
	AddrGlobal: "set %[2]s, %[1]s",
	Move:       "or %[2]s, %%g0, %[1]s",
	Neg:        "sub %%g0, %[2]s, %[1]s",
	Not:        "xnor %[2]s, %%g0, %[1]s",
	Jump:       "b %s",
	Call:       "call %s",
	Nop:        "nop",
	Ops: map[ir.Op]string{
		ir.Add: "add", ir.Sub: "sub", ir.And: "and", ir.Or: "or", ir.Xor: "xor",
		ir.Shl: "sll", ir.Shr: "sra",
	},
	Op3:      "%[1]s %[3]s, %[4]s, %[2]s",
	InPlace:  true,
	Prologue: []string{"add %%sp, %[2]d, %%sp", "st %%o7, [%%sp]", "st %%fp, [%%sp+4]", "add %%sp, %[1]d, %%fp"},
	Epilogue: []string{"ld [%%sp], %%o7", "ld [%%sp+4], %%fp", "add %%sp, %[1]d, %%sp", "retl"},

	Branch:   branch,
	MulDiv:   mulCall,
	Fill:     fill,
	Clobbers: dangerous,
}

// fill reports whether arg loads into a register with one instruction,
// making it legal cargo for the delay slot of a call to callee. Builtins
// (printf, exit) always take their arguments before the call, leaving a
// nop in the slot.
func fill(g *cc.LoadStore, callee string, arg *ir.Node) bool {
	if callee == "printf" || callee == "exit" {
		return false
	}
	if arg.Op == ir.Const {
		return true
	}
	if arg.Op == ir.Load && arg.Kids[0].Op == ir.Addr {
		_, isLocal := g.Fn.LookupLocal(arg.Kids[0].Name)
		return isLocal
	}
	return false
}

// dangerous reports whether evaluating n routes through the %o registers —
// a function call or a millicode multiply/divide anywhere inside.
func dangerous(n *ir.Node) bool {
	if n == nil {
		return false
	}
	if n.Op == ir.Call || n.Op == ir.Mul || n.Op == ir.Div || n.Op == ir.Mod {
		return true
	}
	for _, k := range n.Kids {
		if dangerous(k) {
			return true
		}
	}
	return false
}

var branchOps = map[ir.Rel]string{
	ir.EQ: "be", ir.NE: "bne", ir.LT: "bl", ir.LE: "ble", ir.GT: "bg", ir.GE: "bge",
}

// branch compares into the condition codes, against %g0 or a 13-bit
// immediate when it can, and branches on them.
func branch(g *cc.LoadStore, st *ir.Stmt) error {
	rA, err := g.EvalReg(st.A)
	if err != nil {
		return err
	}
	switch {
	case st.B.Op == ir.Const && st.B.Value == 0:
		g.Ins("cmp %s, %%g0", rA)
	case st.B.Op == ir.Const && st.B.Value >= -4096 && st.B.Value <= 4095:
		g.Ins("cmp %s, %d", rA, st.B.Value)
	default:
		rB, err := g.EvalReg(st.B)
		if err != nil {
			return err
		}
		g.Ins("cmp %s, %s", rA, rB)
		g.Release(rB)
	}
	g.Release(rA)
	g.Ins("%s %s", branchOps[st.Rel], st.Target)
	return nil
}

var milliOps = map[ir.Op]string{ir.Mul: ".mul", ir.Div: ".div", ir.Mod: ".rem"}

// mulCall evaluates a multiply/divide/remainder through the millicode
// routines: operands in %o0/%o1, result in %o0. When the second operand is
// a one-instruction leaf it rides in the call's delay slot.
func mulCall(g *cc.LoadStore, n *ir.Node) (string, error) {
	op := milliOps[n.Op]
	if !dangerous(n.Kids[1]) {
		return "%o0", g.CallArgs(op, n.Kids)
	}
	// The right-hand side passes through %o0/%o1 itself: evaluate both
	// sides into %l registers first.
	l, r, err := g.Operands(n, 0)
	if err != nil {
		return "", err
	}
	g.Ins("or %s, %%g0, %%o0", l)
	g.Ins("or %s, %%g0, %%o1", r)
	g.Release(l)
	g.Release(r)
	g.Ins("call %s", op)
	g.Ins("nop")
	return "%o0", nil
}
