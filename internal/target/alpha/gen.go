package alpha

import (
	"fmt"
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
func (t *Toolchain) CompileC(src string) (string, error) {
	g := &gen{cc.Backend{Arch: "alpha", Pool: pool, Frame: fpSlot, MaxParams: 3}}
	return g.Compile(src, g.genFunc)
}

// pool is the expression-temporary allocation order.
var pool = []string{"$1", "$2", "$3", "$4", "$5", "$6", "$7"}

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
		g.Ins("ldil %s, %d", r, n.Value)
	case ir.Load:
		name := n.Kids[0].Name
		if l, isLocal := g.Fn.LookupLocal(name); isLocal {
			g.Ins("ldl %s, %s", r, g.slot(l))
		} else {
			g.Ins("ldl %s, %s", r, name)
		}
	case ir.Addr:
		if l, isLocal := g.Fn.LookupLocal(n.Name); isLocal {
			g.Ins("lda %s, %d($fp)", r, g.slotOff(l))
		} else {
			g.Ins("lda %s, %s", r, n.Name)
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
	g.Ins("lda $sp, %d($sp)", -frame)
	g.Ins("stl $26, %d($sp)", frame-4)
	g.Ins("stl $fp, %d($sp)", frame-8)
	g.Ins("lda $fp, %d($sp)", frame-8)
	for _, l := range f.Locals {
		if l.IsParam {
			g.Ins("stl $%d, %s", 16+l.Index, g.slot(l))
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
	g.Ins("ldl $26, 4($fp)")
	g.Ins("lda $sp, 8($fp)")
	g.Ins("ldl $fp, 0($fp)")
	g.Ins("ret ($26)")
}

func (g *gen) genStmt(st *ir.Stmt) error {
	switch st.Kind {
	case ir.SLabel:
		g.Label(st.Target)
	case ir.SGoto:
		g.Ins("br %s", st.Target)
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
				if err := g.loadLeaf(st.Val, "$0"); err != nil {
					return err
				}
			} else {
				r, err := g.evalReg(st.Val)
				if err != nil {
					return err
				}
				g.Ins("bis %s, $31, $0", r)
				g.Release(r)
			}
		}
		g.epilogue()
	}
	return nil
}

// genBranch lowers a conditional branch through a compare-into-register:
// cmplt/cmple/cmpeq produce 0 or 1, then bne/beq tests the result. A
// comparison against constant zero for (in)equality branches directly.
func (g *gen) genBranch(st *ir.Stmt) error {
	rA, err := g.evalReg(st.A)
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
	rB, err := g.evalReg(st.B)
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
	t, ok := g.Alloc()
	if !ok {
		return g.Errf("register pool exhausted")
	}
	g.Ins("%s %s, %s, %s", cmp, a, b, t)
	g.Release(rA)
	g.Release(rB)
	g.Release(t)
	g.Ins("%s %s, %s", br, t, st.Target)
	return nil
}

func (g *gen) genStore(addr, val *ir.Node) error {
	if val.Op == ir.Call {
		if err := g.genCall(val); err != nil {
			return err
		}
		return g.storeReg("$0", addr)
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
			g.Ins("stl %s, %s", r, g.slot(l))
		} else {
			g.Ins("stl %s, %s", r, addr.Name)
		}
		return nil
	}
	ra, err := g.evalReg(addr)
	if err != nil {
		return err
	}
	g.Ins("stl %s, 0(%s)", r, ra)
	g.Release(ra)
	return nil
}

var binOps = map[ir.Op]string{
	ir.Add: "addl", ir.Sub: "subl", ir.Mul: "mull", ir.Div: "divl", ir.Mod: "reml",
	ir.And: "and", ir.Or: "bis", ir.Xor: "xor", ir.Shl: "sll", ir.Shr: "sra",
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
		g.Ins("ldl %s, 0(%s)", r, r)
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
			g.Ins("subl $31, %s, %s", r, d)
		} else {
			g.Ins("ornot $31, %s, %s", r, d)
		}
		g.Release(r)
		return d, nil
	case n.Op == ir.Call:
		if err := g.genCall(n); err != nil {
			return "", err
		}
		r, ok := g.Alloc()
		if !ok {
			return "", g.Errf("register pool exhausted")
		}
		g.Ins("bis $0, $31, %s", r)
		return r, nil
	case n.Op.IsBinary():
		return g.binary(n)
	}
	return "", g.Errf("cannot evaluate %s", n)
}

func (g *gen) binary(n *ir.Node) (string, error) {
	op, ok := binOps[n.Op]
	if !ok {
		return "", g.Errf("no opcode for %s", n.Op)
	}
	l, err := g.evalReg(n.Kids[0])
	if err != nil {
		return "", err
	}
	var r string
	if n.Kids[1].ContainsCall() || g.FreeCount() < 2 {
		sl, err := g.ScratchPush()
		if err != nil {
			return "", err
		}
		g.Ins("stl %s, %s", l, sl)
		g.Release(l)
		r, err = g.evalReg(n.Kids[1])
		if err != nil {
			return "", err
		}
		l2, ok := g.Alloc()
		if !ok {
			return "", g.Errf("register pool exhausted")
		}
		g.Ins("ldl %s, %s", l2, sl)
		g.ScratchPop()
		l = l2
	} else {
		r, err = g.evalReg(n.Kids[1])
		if err != nil {
			return "", err
		}
	}
	d, okd := g.Alloc()
	if !okd {
		return "", g.Errf("register pool exhausted")
	}
	g.Ins("%s %s, %s, %s", op, l, r, d)
	if n.Op == ir.Shl {
		// The 64-bit shifter can leave bits above 31: canonicalize the
		// longword with a no-op add, which truncates and re-extends.
		g.Ins("addl %s, 0, %s", d, d)
	}
	g.Release(l)
	g.Release(r)
	return d, nil
}

// genCall loads arguments into $16.., staging them through the frame when
// a later argument contains a nested call, then jumps with jsr $26.
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
			g.Ins("stl %s, %s", r, sl)
			g.Release(r)
			slots[i] = sl
		}
		for i, sl := range slots {
			g.Ins("ldl $%d, %s", 16+i, sl)
		}
		for range slots {
			g.ScratchPop()
		}
	} else {
		for i, k := range n.Kids {
			dst := fmt.Sprintf("$%d", 16+i)
			if g.isLeaf(k) {
				if err := g.loadLeaf(k, dst); err != nil {
					return err
				}
			} else {
				r, err := g.evalReg(k)
				if err != nil {
					return err
				}
				g.Ins("bis %s, $31, %s", r, dst)
				g.Release(r)
			}
		}
	}
	g.Ins("jsr $26, %s", n.Name)
	return nil
}
