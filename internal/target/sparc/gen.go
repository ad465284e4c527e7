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
func (t *Toolchain) CompileC(src string) (string, error) {
	g := &gen{Backend: cc.Backend{Arch: "sparc", Pool: pool, Frame: fpSlot, MaxParams: 3}}
	return g.Compile(src, g.genFunc)
}

// pool is the expression-temporary allocation order.
var pool = []string{"%l0", "%l1", "%l2", "%l3", "%l4", "%l5", "%l6", "%l7"}

type gen struct {
	cc.Backend
	frame int
}

// fpSlot renders the frame slot at a displacement from %fp.
func fpSlot(disp int) string { return mem("%fp", disp) }

// mem renders a register-relative memory operand.
func mem(base string, disp int) string {
	switch {
	case disp == 0:
		return "[" + base + "]"
	case disp > 0:
		return fmt.Sprintf("[%s+%d]", base, disp)
	}
	return fmt.Sprintf("[%s%d]", base, disp)
}

// slot returns the frame-slot operand for a named local or parameter.
// Parameters occupy the first slots below %fp, locals the next.
func (g *gen) slot(l ir.Local) string {
	if l.IsParam {
		return fpSlot(-4 * (l.Index + 1))
	}
	return fpSlot(-4 * (g.Params + l.Index + 1))
}

// isLeaf reports whether n can be loaded into a register without any
// temporaries: a constant, a named load, or an address.
func (g *gen) isLeaf(n *ir.Node) bool {
	switch n.Op {
	case ir.Const, ir.Addr:
		return true
	case ir.Load:
		return n.Kids[0].Op == ir.Addr
	}
	return false
}

// delayable reports whether n loads into a register with one instruction,
// making it legal cargo for a call's delay slot.
func (g *gen) delayable(n *ir.Node) bool {
	if n.Op == ir.Const {
		return true
	}
	if n.Op == ir.Load && n.Kids[0].Op == ir.Addr {
		_, isLocal := g.Fn.LookupLocal(n.Kids[0].Name)
		return isLocal
	}
	return false
}

// loadLeaf emits code placing leaf n into register r.
func (g *gen) loadLeaf(n *ir.Node, r string) error {
	switch n.Op {
	case ir.Const:
		g.Ins("set %d, %s", n.Value, r)
	case ir.Load:
		name := n.Kids[0].Name
		if l, isLocal := g.Fn.LookupLocal(name); isLocal {
			g.Ins("ld %s, %s", g.slot(l), r)
		} else {
			g.Ins("set %s, %s", name, r)
			g.Ins("ld %s, %s", mem(r, 0), r)
		}
	case ir.Addr:
		if l, isLocal := g.Fn.LookupLocal(n.Name); isLocal {
			off := -4 * (l.Index + 1)
			if !l.IsParam {
				off = -4 * (g.Params + l.Index + 1)
			}
			g.Ins("add %%fp, %d, %s", off, r)
		} else {
			g.Ins("set %s, %s", n.Name, r)
		}
	default:
		return g.Errf("not a leaf: %s", n)
	}
	return nil
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

func (g *gen) genFunc(f *ir.Func) error {
	g.Slots = g.Params + g.Locals
	g.frame = 8 + 4*g.Slots + 4*cc.MaxScratch
	g.Raw("\t.globl " + f.Name)
	g.Label(f.Name)
	g.Ins("add %%sp, %d, %%sp", -g.frame)
	g.Ins("st %%o7, [%%sp]")
	g.Ins("st %%fp, [%%sp+4]")
	g.Ins("add %%sp, %d, %%fp", g.frame)
	for _, l := range f.Locals {
		if l.IsParam {
			g.Ins("st %%o%d, %s", l.Index, g.slot(l))
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
	g.Ins("ld [%%sp], %%o7")
	g.Ins("ld [%%sp+4], %%fp")
	g.Ins("add %%sp, %d, %%sp", g.frame)
	g.Ins("retl")
}

func (g *gen) genStmt(st *ir.Stmt) error {
	switch st.Kind {
	case ir.SLabel:
		g.Label(st.Target)
	case ir.SGoto:
		g.Ins("b %s", st.Target)
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
				if err := g.loadLeaf(st.Val, "%o0"); err != nil {
					return err
				}
			} else {
				r, err := g.evalReg(st.Val)
				if err != nil {
					return err
				}
				g.Ins("or %s, %%g0, %%o0", r)
				g.Release(r)
			}
		}
		g.epilogue()
	}
	return nil
}

var branchOps = map[ir.Rel]string{
	ir.EQ: "be", ir.NE: "bne", ir.LT: "bl", ir.LE: "ble", ir.GT: "bg", ir.GE: "bge",
}

func (g *gen) genBranch(st *ir.Stmt) error {
	rA, err := g.evalReg(st.A)
	if err != nil {
		return err
	}
	switch {
	case st.B.Op == ir.Const && st.B.Value == 0:
		g.Ins("cmp %s, %%g0", rA)
	case st.B.Op == ir.Const && st.B.Value >= -4096 && st.B.Value <= 4095:
		g.Ins("cmp %s, %d", rA, st.B.Value)
	default:
		rB, err := g.evalReg(st.B)
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

func (g *gen) genStore(addr, val *ir.Node) error {
	switch {
	case val.Op == ir.Call:
		if err := g.genCall(val); err != nil {
			return err
		}
		return g.storeReg("%o0", addr)
	case val.Op == ir.Mul || val.Op == ir.Div || val.Op == ir.Mod:
		if err := g.mulCall(val); err != nil {
			return err
		}
		return g.storeReg("%o0", addr)
	case g.isLeaf(val):
		r, ok := g.Alloc()
		if !ok {
			return g.Errf("register pool exhausted")
		}
		if err := g.loadLeaf(val, r); err != nil {
			return err
		}
		err := g.storeReg(r, addr)
		g.Release(r)
		return err
	default:
		r, err := g.evalReg(val)
		if err != nil {
			return err
		}
		err = g.storeReg(r, addr)
		g.Release(r)
		return err
	}
}

// storeReg stores register r to the location named by addr: a frame slot,
// a global (staged through %g1), or a computed pointer.
func (g *gen) storeReg(r string, addr *ir.Node) error {
	if addr.Op == ir.Addr {
		if l, isLocal := g.Fn.LookupLocal(addr.Name); isLocal {
			g.Ins("st %s, %s", r, g.slot(l))
			return nil
		}
		g.Ins("set %s, %%g1", addr.Name)
		g.Ins("st %s, [%%g1]", r)
		return nil
	}
	ra, err := g.evalReg(addr)
	if err != nil {
		return err
	}
	g.Ins("st %s, %s", r, mem(ra, 0))
	g.Release(ra)
	return nil
}

var binOps = map[ir.Op]string{
	ir.Add: "add", ir.Sub: "sub", ir.And: "and", ir.Or: "or", ir.Xor: "xor",
	ir.Shl: "sll", ir.Shr: "sra",
}

// evalReg evaluates n into a freshly allocated %l register.
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
		g.Ins("ld %s, %s", mem(r, 0), r)
		return r, nil
	case n.Op == ir.Neg:
		r, err := g.evalReg(n.Kids[0])
		if err != nil {
			return "", err
		}
		g.Ins("sub %%g0, %s, %s", r, r)
		return r, nil
	case n.Op == ir.Not:
		r, err := g.evalReg(n.Kids[0])
		if err != nil {
			return "", err
		}
		g.Ins("xnor %s, %%g0, %s", r, r)
		return r, nil
	case n.Op == ir.Mul || n.Op == ir.Div || n.Op == ir.Mod:
		if err := g.mulCall(n); err != nil {
			return "", err
		}
		r, ok := g.Alloc()
		if !ok {
			return "", g.Errf("register pool exhausted")
		}
		g.Ins("or %%o0, %%g0, %s", r)
		return r, nil
	case n.Op == ir.Call:
		if err := g.genCall(n); err != nil {
			return "", err
		}
		r, ok := g.Alloc()
		if !ok {
			return "", g.Errf("register pool exhausted")
		}
		g.Ins("or %%o0, %%g0, %s", r)
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
	if n.Kids[1].ContainsCall() || g.FreeCount() == 0 {
		// Spill the left value into the frame across the right-hand
		// evaluation: a function call would clobber every %l register.
		sl, err := g.ScratchPush()
		if err != nil {
			return "", err
		}
		g.Ins("st %s, %s", l, sl)
		g.Release(l)
		r, err := g.evalReg(n.Kids[1])
		if err != nil {
			return "", err
		}
		l2, ok := g.Alloc()
		if !ok {
			return "", g.Errf("register pool exhausted")
		}
		g.Ins("ld %s, %s", sl, l2)
		g.ScratchPop()
		g.Ins("%s %s, %s, %s", op, l2, r, l2)
		g.Release(r)
		return l2, nil
	}
	r, err := g.evalReg(n.Kids[1])
	if err != nil {
		return "", err
	}
	g.Ins("%s %s, %s, %s", op, l, r, l)
	g.Release(r)
	return l, nil
}

var milliOps = map[ir.Op]string{ir.Mul: ".mul", ir.Div: ".div", ir.Mod: ".rem"}

// mulCall evaluates a multiply/divide/remainder through the millicode
// routines: operands in %o0/%o1, result in %o0. When the second operand is
// a one-instruction leaf it rides in the call's delay slot.
func (g *gen) mulCall(n *ir.Node) error {
	op := milliOps[n.Op]
	if dangerous(n.Kids[1]) {
		// The right-hand side passes through %o0/%o1 itself: evaluate both
		// sides into %l registers first.
		l, err := g.evalReg(n.Kids[0])
		if err != nil {
			return err
		}
		if n.Kids[1].ContainsCall() {
			sl, err := g.ScratchPush()
			if err != nil {
				return err
			}
			g.Ins("st %s, %s", l, sl)
			g.Release(l)
			r, err := g.evalReg(n.Kids[1])
			if err != nil {
				return err
			}
			l2, ok := g.Alloc()
			if !ok {
				return g.Errf("register pool exhausted")
			}
			g.Ins("ld %s, %s", sl, l2)
			g.ScratchPop()
			g.Ins("or %s, %%g0, %%o0", l2)
			g.Ins("or %s, %%g0, %%o1", r)
			g.Release(l2)
			g.Release(r)
		} else {
			r, err := g.evalReg(n.Kids[1])
			if err != nil {
				return err
			}
			g.Ins("or %s, %%g0, %%o0", l)
			g.Ins("or %s, %%g0, %%o1", r)
			g.Release(l)
			g.Release(r)
		}
		g.Ins("call %s", op)
		g.Ins("nop")
		return nil
	}
	if g.isLeaf(n.Kids[0]) {
		if err := g.loadLeaf(n.Kids[0], "%o0"); err != nil {
			return err
		}
	} else {
		r, err := g.evalReg(n.Kids[0])
		if err != nil {
			return err
		}
		g.Ins("or %s, %%g0, %%o0", r)
		g.Release(r)
	}
	if g.delayable(n.Kids[1]) {
		g.Ins("call %s", op)
		return g.loadLeaf(n.Kids[1], "%o1")
	}
	if g.isLeaf(n.Kids[1]) {
		if err := g.loadLeaf(n.Kids[1], "%o1"); err != nil {
			return err
		}
	} else {
		r, err := g.evalReg(n.Kids[1])
		if err != nil {
			return err
		}
		g.Ins("or %s, %%g0, %%o1", r)
		g.Release(r)
	}
	g.Ins("call %s", op)
	g.Ins("nop")
	return nil
}

// genCall loads arguments into %o0.., with the last one in the delay slot
// when it is a one-instruction leaf. Builtins (printf, exit) always take
// their arguments before the call, leaving a nop in the slot.
func (g *gen) genCall(n *ir.Node) error {
	if len(n.Kids) > 3 {
		return g.Errf("call %s: more than 3 arguments", n.Name)
	}
	builtin := n.Name == "printf" || n.Name == "exit"
	anyDanger := false
	for _, k := range n.Kids {
		if dangerous(k) {
			anyDanger = true
		}
	}
	if anyDanger && len(n.Kids) > 1 {
		// Stage every argument through the frame: a nested call would
		// clobber already-loaded %o registers.
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
			g.Ins("st %s, %s", r, sl)
			g.Release(r)
			slots[i] = sl
		}
		for i, sl := range slots {
			g.Ins("ld %s, %%o%d", sl, i)
		}
		for range slots {
			g.ScratchPop()
		}
		g.Ins("call %s", n.Name)
		g.Ins("nop")
		return nil
	}
	loadArg := func(i int) error {
		k := n.Kids[i]
		dst := fmt.Sprintf("%%o%d", i)
		if g.isLeaf(k) {
			return g.loadLeaf(k, dst)
		}
		r, err := g.evalReg(k)
		if err != nil {
			return err
		}
		g.Ins("or %s, %%g0, %s", r, dst)
		g.Release(r)
		return nil
	}
	nargs := len(n.Kids)
	for i := 0; i < nargs-1; i++ {
		if err := loadArg(i); err != nil {
			return err
		}
	}
	if nargs > 0 && !builtin && g.delayable(n.Kids[nargs-1]) {
		g.Ins("call %s", n.Name)
		return g.loadLeaf(n.Kids[nargs-1], fmt.Sprintf("%%o%d", nargs-1))
	}
	if nargs > 0 {
		if err := loadArg(nargs - 1); err != nil {
			return err
		}
	}
	g.Ins("call %s", n.Name)
	g.Ins("nop")
	return nil
}
