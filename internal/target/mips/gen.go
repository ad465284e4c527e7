package mips

import (
	"fmt"
	"strconv"

	"srcg/internal/cc"
	"srcg/internal/ir"
)

// CompileC implements target.Toolchain: it lowers mini-C to MIPS
// assembly. Named values live in frame slots below $fp; expressions are
// evaluated in $8..$15 with a fresh destination register per operation;
// $4..$7 carry arguments and $2 the return value. Multiplication and
// division run through the hidden hi/lo registers via mult/div +
// mflo/mfhi.
func (t *Toolchain) CompileC(src string) (string, error) {
	g := &gen{cc.Backend{Arch: "mips", Pool: pool, Frame: fpSlot, MaxParams: 3}}
	return g.Compile(src, g.genFunc)
}

// pool is the expression-temporary allocation order.
var pool = []string{"$8", "$9", "$10", "$11", "$12", "$13", "$14", "$15"}

type gen struct{ cc.Backend }

// fpSlot renders the frame slot at a displacement from $fp.
func fpSlot(disp int) string { return strconv.Itoa(disp) + "($fp)" }

// slotOff returns the $fp-relative offset of a named local or parameter.
func (g *gen) slotOff(l ir.Local) int {
	if l.IsParam {
		return -4 * (l.Index + 1)
	}
	return -4 * (g.Params + l.Index + 1)
}

// slot renders the frame-slot operand for a named local or parameter.
func (g *gen) slot(l ir.Local) string { return fpSlot(g.slotOff(l)) }

// isLeaf reports whether n loads into a register without temporaries.
func (g *gen) isLeaf(n *ir.Node) bool {
	switch n.Op {
	case ir.Const, ir.Addr:
		return true
	case ir.Load:
		return n.Kids[0].Op == ir.Addr
	}
	return false
}

// loadLeaf emits code placing leaf n into register r.
func (g *gen) loadLeaf(n *ir.Node, r string) error {
	switch n.Op {
	case ir.Const:
		g.Ins("li %s, %d", r, n.Value)
	case ir.Load:
		name := n.Kids[0].Name
		if l, isLocal := g.Fn.LookupLocal(name); isLocal {
			g.Ins("lw %s, %s", r, g.slot(l))
		} else {
			g.Ins("lw %s, %s", r, name)
		}
	case ir.Addr:
		if l, isLocal := g.Fn.LookupLocal(n.Name); isLocal {
			g.Ins("addu %s, $fp, %d", r, g.slotOff(l))
		} else {
			g.Ins("la %s, %s", r, n.Name)
		}
	default:
		return g.Errf("not a leaf: %s", n)
	}
	return nil
}

func (g *gen) genFunc(f *ir.Func) error {
	g.Slots = g.Params + g.Locals
	frame := 8 + 4*g.Slots + 4*cc.MaxScratch
	g.Raw("\t.globl " + f.Name)
	g.Label(f.Name)
	g.Ins("subu $sp, $sp, %d", frame)
	g.Ins("sw $31, %d($sp)", frame-4)
	g.Ins("sw $fp, %d($sp)", frame-8)
	g.Ins("addu $fp, $sp, %d", frame-8)
	for _, l := range f.Locals {
		if l.IsParam {
			g.Ins("sw $%d, %s", 4+l.Index, g.slot(l))
		}
	}
	for _, st := range f.Body {
		if err := g.genStmt(st); err != nil {
			return err
		}
	}
	if !cc.EndsFlow(f.Body) {
		g.epilogue()
	}
	return nil
}

func (g *gen) epilogue() {
	g.Ins("lw $31, 4($fp)")
	g.Ins("addu $sp, $fp, 8")
	g.Ins("lw $fp, 0($fp)")
	g.Ins("jr $31")
}

func (g *gen) genStmt(st *ir.Stmt) error {
	switch st.Kind {
	case ir.SLabel:
		g.Label(st.Target)
	case ir.SGoto:
		g.Ins("j %s", st.Target)
	case ir.SBranch:
		return g.genBranch(st)
	case ir.SStore:
		return g.genStore(st.Addr, st.Val)
	case ir.SExpr:
		if st.Val != nil && st.Val.Op == ir.Call {
			return g.genCall(st.Val)
		}
	case ir.SRet:
		if st.Val != nil {
			if g.isLeaf(st.Val) {
				if err := g.loadLeaf(st.Val, "$2"); err != nil {
					return err
				}
			} else {
				r, err := g.evalReg(st.Val)
				if err != nil {
					return err
				}
				g.Ins("addu $2, %s, $0", r)
				g.Release(r)
			}
		}
		g.epilogue()
	}
	return nil
}

var branchOps = map[ir.Rel]string{
	ir.EQ: "beq", ir.NE: "bne", ir.LT: "blt", ir.LE: "ble", ir.GT: "bgt", ir.GE: "bge",
}

func (g *gen) genBranch(st *ir.Stmt) error {
	rA, err := g.evalReg(st.A)
	if err != nil {
		return err
	}
	rB := "$0"
	if st.B.Op != ir.Const || st.B.Value != 0 {
		rB, err = g.evalReg(st.B)
		if err != nil {
			return err
		}
		defer g.Release(rB)
	}
	g.Release(rA)
	g.Ins("%s %s, %s, %s", branchOps[st.Rel], rA, rB, st.Target)
	return nil
}

func (g *gen) genStore(addr, val *ir.Node) error {
	if val.Op == ir.Call {
		if err := g.genCall(val); err != nil {
			return err
		}
		return g.storeReg("$2", addr)
	}
	r, err := g.evalReg(val)
	if err != nil {
		return err
	}
	err = g.storeReg(r, addr)
	g.Release(r)
	return err
}

// storeReg stores register r to the location named by addr.
func (g *gen) storeReg(r string, addr *ir.Node) error {
	if addr.Op == ir.Addr {
		if l, isLocal := g.Fn.LookupLocal(addr.Name); isLocal {
			g.Ins("sw %s, %s", r, g.slot(l))
		} else {
			g.Ins("sw %s, %s", r, addr.Name)
		}
		return nil
	}
	ra, err := g.evalReg(addr)
	if err != nil {
		return err
	}
	g.Ins("sw %s, 0(%s)", r, ra)
	g.Release(ra)
	return nil
}

var binOps = map[ir.Op]string{
	ir.Add: "add", ir.Sub: "subu", ir.And: "and", ir.Or: "or", ir.Xor: "xor",
	ir.Shl: "sllv", ir.Shr: "srav",
}

// evalReg evaluates n into a freshly allocated pool register.
func (g *gen) evalReg(n *ir.Node) (string, error) {
	switch {
	case g.isLeaf(n):
		r, ok := g.Alloc()
		if !ok {
			return "", g.Errf("register pool exhausted")
		}
		return r, g.loadLeaf(n, r)
	case n.Op == ir.Load: // *p as an rvalue
		r, err := g.evalReg(n.Kids[0])
		if err != nil {
			return "", err
		}
		g.Ins("lw %s, 0(%s)", r, r)
		return r, nil
	case n.Op == ir.Neg || n.Op == ir.Not:
		r, err := g.evalReg(n.Kids[0])
		if err != nil {
			return "", err
		}
		d, ok := g.Alloc()
		if !ok {
			return "", g.Errf("register pool exhausted")
		}
		if n.Op == ir.Neg {
			g.Ins("subu %s, $0, %s", d, r)
		} else {
			g.Ins("nor %s, %s, $0", d, r)
		}
		g.Release(r)
		return d, nil
	case n.Op == ir.Mul || n.Op == ir.Div || n.Op == ir.Mod:
		return g.mulDiv(n)
	case n.Op == ir.Call:
		if err := g.genCall(n); err != nil {
			return "", err
		}
		r, ok := g.Alloc()
		if !ok {
			return "", g.Errf("register pool exhausted")
		}
		g.Ins("addu %s, $2, $0", r)
		return r, nil
	case n.Op.IsBinary():
		return g.binary(n)
	}
	return "", g.Errf("cannot evaluate %s", n)
}

// operands evaluates both children of a binary node, spilling the left
// value into the frame when the right one contains a call.
func (g *gen) operands(n *ir.Node) (string, string, error) {
	l, err := g.evalReg(n.Kids[0])
	if err != nil {
		return "", "", err
	}
	if n.Kids[1].ContainsCall() || g.FreeCount() < 2 {
		sl, err := g.ScratchPush()
		if err != nil {
			return "", "", err
		}
		g.Ins("sw %s, %s", l, sl)
		g.Release(l)
		r, err := g.evalReg(n.Kids[1])
		if err != nil {
			return "", "", err
		}
		l2, ok := g.Alloc()
		if !ok {
			return "", "", g.Errf("register pool exhausted")
		}
		g.Ins("lw %s, %s", l2, sl)
		g.ScratchPop()
		return l2, r, nil
	}
	r, err := g.evalReg(n.Kids[1])
	if err != nil {
		return "", "", err
	}
	return l, r, nil
}

func (g *gen) binary(n *ir.Node) (string, error) {
	op, ok := binOps[n.Op]
	if !ok {
		return "", g.Errf("no opcode for %s", n.Op)
	}
	l, r, err := g.operands(n)
	if err != nil {
		return "", err
	}
	d, okd := g.Alloc()
	if !okd {
		return "", g.Errf("register pool exhausted")
	}
	g.Ins("%s %s, %s, %s", op, d, l, r)
	g.Release(l)
	g.Release(r)
	return d, nil
}

// mulDiv routes multiplication and division through the hidden hi/lo
// registers: mult/div write them, mflo/mfhi read them back.
func (g *gen) mulDiv(n *ir.Node) (string, error) {
	l, r, err := g.operands(n)
	if err != nil {
		return "", err
	}
	if n.Op == ir.Mul {
		g.Ins("mult %s, %s", l, r)
	} else {
		g.Ins("div %s, %s", l, r)
	}
	d, ok := g.Alloc()
	if !ok {
		return "", g.Errf("register pool exhausted")
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

// genCall loads arguments into $4.., staging them through the frame when a
// later argument contains a nested call, then jumps with jal.
func (g *gen) genCall(n *ir.Node) error {
	if len(n.Kids) > 3 {
		return g.Errf("call %s: more than 3 arguments", n.Name)
	}
	anyCall := false
	for _, k := range n.Kids {
		if k.ContainsCall() {
			anyCall = true
		}
	}
	if anyCall && len(n.Kids) > 1 {
		slots := make([]string, len(n.Kids))
		for i, k := range n.Kids {
			r, err := g.evalReg(k)
			if err != nil {
				return err
			}
			sl, err := g.ScratchPush()
			if err != nil {
				return err
			}
			g.Ins("sw %s, %s", r, sl)
			g.Release(r)
			slots[i] = sl
		}
		for i, sl := range slots {
			g.Ins("lw $%d, %s", 4+i, sl)
		}
		for range slots {
			g.ScratchPop()
		}
	} else {
		for i, k := range n.Kids {
			dst := fmt.Sprintf("$%d", 4+i)
			if g.isLeaf(k) {
				if err := g.loadLeaf(k, dst); err != nil {
					return err
				}
			} else {
				r, err := g.evalReg(k)
				if err != nil {
					return err
				}
				g.Ins("addu %s, %s, $0", dst, r)
				g.Release(r)
			}
		}
	}
	g.Ins("jal %s", n.Name)
	return nil
}
