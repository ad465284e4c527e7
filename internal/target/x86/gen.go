package x86

import (
	"fmt"
	"strings"

	"srcg/internal/cc"
	"srcg/internal/ir"
)

// CompileC implements target.Toolchain: it lowers mini-C to AT&T-style
// i386 assembly. Locals live at -4(%ebp), -8(%ebp), ... below the frame
// pointer; parameters at 8(%ebp), 12(%ebp), ... above it. Expressions are
// evaluated into a small register pool, with %eax reserved for division,
// call staging, and return values.
func (t *Toolchain) CompileC(src string) (string, error) {
	g := &gen{cc.Backend{Arch: "x86", Pool: pool}}
	return g.Compile(src, g.genFunc)
}

// pool is the expression-temporary allocation order. %eax stays out: it is
// the implicit division/return register.
var pool = []string{"%edx", "%ecx", "%ebx", "%esi", "%edi"}

type gen struct{ cc.Backend }

// slot returns the memory operand for a named local or parameter.
func (g *gen) slot(l ir.Local) string {
	if l.IsParam {
		return fmt.Sprintf("%d(%%ebp)", 8+4*l.Index)
	}
	return fmt.Sprintf("-%d(%%ebp)", 4*(l.Index+1))
}

// memOperand renders the operand for a named location: a frame slot for
// locals, the bare symbol for globals.
func (g *gen) memOperand(name string) string {
	if l, ok := g.Fn.LookupLocal(name); ok {
		return g.slot(l)
	}
	return name
}

// leaf returns the direct operand for nodes that need no code: integer
// constants, symbol addresses, and simple named loads.
func (g *gen) leaf(n *ir.Node) (string, bool) {
	switch n.Op {
	case ir.Const:
		return fmt.Sprintf("$%d", n.Value), true
	case ir.Load:
		if n.Kids[0].Op == ir.Addr {
			if _, isLocal := g.Fn.LookupLocal(n.Kids[0].Name); isLocal || g.IsData(n.Kids[0].Name) {
				return g.memOperand(n.Kids[0].Name), true
			}
		}
	case ir.Addr:
		if _, isLocal := g.Fn.LookupLocal(n.Name); !isLocal {
			return "$" + n.Name, true
		}
	}
	return "", false
}

func (g *gen) genFunc(f *ir.Func) error {
	frame := 4 * g.Locals
	g.Raw("\t.globl " + f.Name)
	g.Label(f.Name)
	g.Ins("pushl %%ebp")
	g.Ins("movl %%esp, %%ebp")
	g.Ins("subl $%d, %%esp", frame)
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
	g.Ins("movl %%ebp, %%esp")
	g.Ins("popl %%ebp")
	g.Ins("ret")
}

func (g *gen) genStmt(st *ir.Stmt) error {
	switch st.Kind {
	case ir.SLabel:
		g.Label(st.Target)
	case ir.SGoto:
		g.Ins("jmp %s", st.Target)
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
			if op, ok := g.leaf(st.Val); ok {
				g.Ins("movl %s, %%eax", op)
			} else {
				r, err := g.evalReg(st.Val)
				if err != nil {
					return err
				}
				g.Ins("movl %s, %%eax", r)
				g.Release(r)
			}
		}
		g.epilogue()
	}
	return nil
}

var branchOps = map[ir.Rel]string{
	ir.EQ: "je", ir.NE: "jne", ir.LT: "jl", ir.LE: "jle", ir.GT: "jg", ir.GE: "jge",
}

func (g *gen) genBranch(st *ir.Stmt) error {
	rA, err := g.evalReg(st.A)
	if err != nil {
		return err
	}
	if op, ok := g.leaf(st.B); ok {
		g.Ins("cmpl %s, %s", op, rA)
	} else {
		rB, err := g.evalReg(st.B)
		if err != nil {
			return err
		}
		g.Ins("cmpl %s, %s", rB, rA)
		g.Release(rB)
	}
	g.Release(rA)
	g.Ins("%s %s", branchOps[st.Rel], st.Target)
	return nil
}

func (g *gen) genStore(addr, val *ir.Node) error {
	// Destination: a named slot/global, or a computed address (*p = ...).
	dst := ""
	dstReg := ""
	if addr.Op == ir.Addr {
		dst = g.memOperand(addr.Name)
	} else {
		r, err := g.evalReg(addr)
		if err != nil {
			return err
		}
		dstReg = r
		dst = "(" + r + ")"
	}
	defer func() {
		if dstReg != "" {
			g.Release(dstReg)
		}
	}()
	switch {
	case val.Op == ir.Const:
		g.Ins("movl $%d, %s", val.Value, dst)
	case (val.Op == ir.Div || val.Op == ir.Mod) && dstReg == "":
		return g.genDiv(val, dst)
	case val.Op == ir.Call:
		if err := g.genCall(val); err != nil {
			return err
		}
		g.Ins("movl %%eax, %s", dst)
	default:
		if op, ok := g.leaf(val); ok {
			r, okr := g.Alloc()
			if !okr {
				return g.Errf("register pool exhausted")
			}
			g.Ins("movl %s, %s", op, r)
			g.Ins("movl %s, %s", r, dst)
			g.Release(r)
			return nil
		}
		r, err := g.evalReg(val)
		if err != nil {
			return err
		}
		g.Ins("movl %s, %s", r, dst)
		g.Release(r)
	}
	return nil
}

// genDiv emits the cltd/idivl sequence for a statement-level quotient or
// remainder, storing %eax (Div) or %edx (Mod) to dst.
func (g *gen) genDiv(n *ir.Node, dst string) error {
	res, err := g.divide(n)
	if err != nil {
		return err
	}
	// The quotient leaves the accumulator through a pool register (the
	// remainder is already in one); %eax stays free for the next
	// statement's division protocol.
	if n.Op == ir.Div {
		r, ok := g.Alloc()
		if !ok {
			return g.Errf("register pool exhausted")
		}
		g.Ins("movl %s, %s", res, r)
		res = r
		defer g.Release(r)
	}
	g.Ins("movl %s, %s", res, dst)
	return nil
}

// divide runs the division protocol and returns "%eax" (Div) or "%edx"
// (Mod) holding the result; the caller must consume it immediately.
func (g *gen) divide(n *ir.Node) (string, error) {
	spill := g.Busy("%edx")
	if spill {
		g.Ins("pushl %%edx")
	}
	divisor := ""
	divReg := ""
	if op, ok := g.leaf(n.Kids[1]); ok && !strings.HasPrefix(op, "$") {
		divisor = op
	} else {
		r, err := g.evalRegAvoid(n.Kids[1], "%edx")
		if err != nil {
			return "", err
		}
		divReg = r
		divisor = r
	}
	if op, ok := g.leaf(n.Kids[0]); ok {
		g.Ins("movl %s, %%eax", op)
	} else {
		r, err := g.evalRegAvoid(n.Kids[0], "%edx")
		if err != nil {
			return "", err
		}
		g.Ins("movl %s, %%eax", r)
		g.Release(r)
	}
	g.Ins("cltd")
	g.Ins("idivl %s", divisor)
	if divReg != "" {
		g.Release(divReg)
	}
	res := "%eax"
	if n.Op == ir.Mod {
		res = "%edx"
	}
	if spill {
		// Park the result out of %edx before restoring it.
		return res, g.Errf("internal: division with live %%edx must go through evalReg")
	}
	return res, nil
}

var binOps = map[ir.Op]string{
	ir.Add: "addl", ir.Sub: "subl", ir.Mul: "imull",
	ir.And: "andl", ir.Or: "orl", ir.Xor: "xorl",
}

// evalReg evaluates n into a freshly allocated pool register.
func (g *gen) evalReg(n *ir.Node) (string, error) { return g.evalRegAvoid(n) }

func (g *gen) evalRegAvoid(n *ir.Node, avoid ...string) (string, error) {
	switch {
	case n.Op == ir.Const, n.Op == ir.Load && n.Kids[0].Op == ir.Addr, n.Op == ir.Addr:
		if op, ok := g.leaf(n); ok {
			r, okr := g.Alloc(avoid...)
			if !okr {
				return "", g.Errf("register pool exhausted")
			}
			g.Ins("movl %s, %s", op, r)
			return r, nil
		}
		if n.Op == ir.Addr { // address of a local
			l, _ := g.Fn.LookupLocal(n.Name)
			r, okr := g.Alloc(avoid...)
			if !okr {
				return "", g.Errf("register pool exhausted")
			}
			g.Ins("leal %s, %s", g.slot(l), r)
			return r, nil
		}
		return "", g.Errf("unsupported leaf %s", n)
	case n.Op == ir.Load: // *p as an rvalue
		r, err := g.evalRegAvoid(n.Kids[0], avoid...)
		if err != nil {
			return "", err
		}
		g.Ins("movl (%s), %s", r, r)
		return r, nil
	case n.Op == ir.Neg || n.Op == ir.Not:
		r, err := g.evalRegAvoid(n.Kids[0], avoid...)
		if err != nil {
			return "", err
		}
		if n.Op == ir.Neg {
			g.Ins("negl %s", r)
		} else {
			g.Ins("notl %s", r)
		}
		return r, nil
	case n.Op == ir.Div || n.Op == ir.Mod:
		return g.divToReg(n, avoid...)
	case n.Op == ir.Shl || n.Op == ir.Shr:
		return g.shift(n, avoid...)
	case n.Op == ir.Call:
		if err := g.genCall(n); err != nil {
			return "", err
		}
		r, okr := g.Alloc(avoid...)
		if !okr {
			return "", g.Errf("register pool exhausted")
		}
		g.Ins("movl %%eax, %s", r)
		return r, nil
	case n.Op.IsBinary():
		return g.binary(n, avoid...)
	}
	return "", g.Errf("cannot evaluate %s", n)
}

func (g *gen) binary(n *ir.Node, avoid ...string) (string, error) {
	op := binOps[n.Op]
	l, err := g.evalRegAvoid(n.Kids[0], avoid...)
	if err != nil {
		return "", err
	}
	if rop, ok := g.leaf(n.Kids[1]); ok {
		g.Ins("%s %s, %s", op, rop, l)
		return l, nil
	}
	if n.Kids[1].ContainsCall() || g.FreeCount() == 0 {
		// Spill the left value across the right-hand evaluation: a call
		// (or an exhausted pool) would clobber it.
		g.Ins("pushl %s", l)
		g.Release(l)
		r, err := g.evalRegAvoid(n.Kids[1], avoid...)
		if err != nil {
			return "", err
		}
		l2, okr := g.Alloc(avoid...)
		if !okr {
			return "", g.Errf("register pool exhausted")
		}
		g.Ins("popl %s", l2)
		g.Ins("%s %s, %s", op, r, l2)
		g.Release(r)
		return l2, nil
	}
	r, err := g.evalRegAvoid(n.Kids[1], avoid...)
	if err != nil {
		return "", err
	}
	g.Ins("%s %s, %s", op, r, l)
	g.Release(r)
	return l, nil
}

// divToReg wraps the division protocol for expression contexts, moving the
// result into a pool register and restoring any spilled %edx.
func (g *gen) divToReg(n *ir.Node, avoid ...string) (string, error) {
	spill := g.Busy("%edx")
	if spill {
		g.Ins("pushl %%edx")
		g.Release("%edx")
	}
	res, err := g.divide(n)
	if err != nil {
		return "", err
	}
	av := append([]string{"%edx"}, avoid...)
	r, okr := g.Alloc(av...)
	if !okr {
		return "", g.Errf("register pool exhausted")
	}
	g.Ins("movl %s, %s", res, r)
	if spill {
		g.Ins("popl %%edx")
		g.Claim("%edx")
	}
	return r, nil
}

// shift emits sall/sarl with the count in %ecx (or as an immediate).
func (g *gen) shift(n *ir.Node, avoid ...string) (string, error) {
	op := "sall"
	if n.Op == ir.Shr {
		op = "sarl"
	}
	if n.Kids[1].Op == ir.Const {
		r, err := g.evalRegAvoid(n.Kids[0], avoid...)
		if err != nil {
			return "", err
		}
		g.Ins("%s $%d, %s", op, n.Kids[1].Value, r)
		return r, nil
	}
	av := append([]string{"%ecx"}, avoid...)
	l, err := g.evalRegAvoid(n.Kids[0], av...)
	if err != nil {
		return "", err
	}
	spill := g.Busy("%ecx")
	if spill {
		g.Ins("pushl %%ecx")
		g.Release("%ecx")
	}
	g.Claim("%ecx")
	if cop, ok := g.leaf(n.Kids[1]); ok {
		g.Ins("movl %s, %%ecx", cop)
	} else {
		r, err := g.evalRegAvoid(n.Kids[1], av...)
		if err != nil {
			return "", err
		}
		g.Ins("movl %s, %%ecx", r)
		g.Release(r)
	}
	g.Ins("%s %%ecx, %s", op, l)
	g.Release("%ecx")
	if spill {
		g.Ins("popl %%ecx")
		g.Claim("%ecx")
	}
	return l, nil
}

// genCall pushes arguments right to left (memory leaves staged through
// %eax), calls, and pops the arguments — except for the no-return exit.
func (g *gen) genCall(n *ir.Node) error {
	for i := len(n.Kids) - 1; i >= 0; i-- {
		arg := n.Kids[i]
		switch {
		case arg.Op == ir.Const:
			g.Ins("pushl $%d", arg.Value)
		case arg.Op == ir.Addr:
			if l, isLocal := g.Fn.LookupLocal(arg.Name); isLocal {
				g.Ins("leal %s, %%eax", g.slot(l))
				g.Ins("pushl %%eax")
			} else {
				g.Ins("pushl $%s", arg.Name)
			}
		case arg.Op == ir.Load && arg.Kids[0].Op == ir.Addr:
			op, ok := g.leaf(arg)
			if !ok {
				return g.Errf("bad argument %s", arg)
			}
			g.Ins("movl %s, %%eax", op)
			g.Ins("pushl %%eax")
		default:
			r, err := g.evalReg(arg)
			if err != nil {
				return err
			}
			g.Ins("pushl %s", r)
			g.Release(r)
		}
	}
	g.Ins("call %s", n.Name)
	if n.Name != "exit" && len(n.Kids) > 0 {
		g.Ins("addl $%d, %%esp", 4*len(n.Kids))
	}
	return nil
}
