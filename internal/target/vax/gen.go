package vax

import (
	"fmt"
	"strconv"

	"srcg/internal/cc"
	"srcg/internal/ir"
)

// CompileC implements target.Toolchain: it lowers mini-C to VAX assembly.
// The three-operand data ops take their operands straight from memory,
// so most statements compile to a single instruction reading and writing
// frame slots. Locals live below fp, parameters above ap; r0 carries
// return values and canned division sequences; r1..r6 hold intermediate
// values for nested expressions.
func (t *Toolchain) CompileC(src string) (string, error) {
	g := &gen{cc.Backend{Arch: "vax", Pool: pool, Frame: fpSlot, MaxParams: 3}}
	return g.Compile(src, g.genFunc)
}

// pool is the expression-temporary allocation order; r0 stays out of it
// because division, modulus, and call results route through it.
var pool = []string{"r1", "r2", "r3", "r4", "r5", "r6"}

type gen struct{ cc.Backend }

// fpSlot renders the frame slot at a displacement from fp.
func fpSlot(disp int) string { return strconv.Itoa(disp) + "(fp)" }

// slot renders the home of a named value: parameters sit above the
// argument pointer, locals below the frame pointer.
func (g *gen) slot(l ir.Local) string {
	if l.IsParam {
		return fmt.Sprintf("%d(ap)", 4*(l.Index+1))
	}
	return fpSlot(-4 * (l.Index + 1))
}

// opnd is a rendered instruction operand; reg names the pool temporary
// backing it, if any, so it can be released or spilled.
type opnd struct {
	text string
	reg  string
}

func (g *gen) releaseOp(o opnd) {
	if o.reg != "" {
		g.Release(o.reg)
	}
}

// isLeaf reports whether n renders as a bare operand without temporaries.
func (g *gen) isLeaf(n *ir.Node) bool {
	switch n.Op {
	case ir.Const:
		return true
	case ir.Addr:
		if _, isLocal := g.Fn.LookupLocal(n.Name); isLocal {
			return false // needs a moval into a register
		}
		return true
	case ir.Load:
		return n.Kids[0].Op == ir.Addr
	}
	return false
}

// leafOperand renders a leaf as an instruction operand.
func (g *gen) leafOperand(n *ir.Node) (string, error) {
	switch n.Op {
	case ir.Const:
		return fmt.Sprintf("$%d", n.Value), nil
	case ir.Addr:
		return "$" + n.Name, nil
	case ir.Load:
		name := n.Kids[0].Name
		if l, isLocal := g.Fn.LookupLocal(name); isLocal {
			return g.slot(l), nil
		}
		return name, nil
	}
	return "", g.Errf("not a leaf: %s", n)
}

// operand renders n as an instruction operand, evaluating it into a pool
// temporary when it is not a leaf.
func (g *gen) operand(n *ir.Node) (opnd, error) {
	if g.isLeaf(n) {
		text, err := g.leafOperand(n)
		return opnd{text: text}, err
	}
	t, ok := g.Alloc()
	if !ok {
		return opnd{}, g.Errf("register pool exhausted")
	}
	if err := g.genInto(n, t); err != nil {
		return opnd{}, err
	}
	return opnd{text: t, reg: t}, nil
}

func (g *gen) genFunc(f *ir.Func) error {
	g.Slots = g.Locals
	frame := 4*g.Slots + 4*cc.MaxScratch
	g.Raw("\t.globl " + f.Name)
	g.Label(f.Name)
	g.Ins("pushl fp")
	g.Ins("movl sp, fp")
	g.Ins("subl2 $%d, sp", frame)
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
	g.Ins("movl fp, sp")
	g.Ins("movl (sp), fp")
	g.Ins("addl2 $4, sp")
	g.Ins("ret")
}

func (g *gen) genStmt(st *ir.Stmt) error {
	switch st.Kind {
	case ir.SLabel:
		g.Label(st.Target)
	case ir.SGoto:
		g.Ins("jbr %s", st.Target)
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
			if err := g.genInto(st.Val, "r0"); err != nil {
				return err
			}
		}
		g.epilogue()
	}
	return nil
}

var branchOps = map[ir.Rel]string{
	ir.EQ: "jeql", ir.NE: "jneq", ir.LT: "jlss", ir.LE: "jleq", ir.GT: "jgtr", ir.GE: "jgeq",
}

// genBranch compares with cmpl (or tstl against zero) and jumps on the
// resulting condition codes.
func (g *gen) genBranch(st *ir.Stmt) error {
	a, err := g.operand(st.A)
	if err != nil {
		return err
	}
	if st.B.Op == ir.Const && st.B.Value == 0 {
		g.Ins("tstl %s", a.text)
	} else {
		if st.B.ContainsCall() && a.reg != "" {
			sl, err := g.ScratchPush()
			if err != nil {
				return err
			}
			g.Ins("movl %s, %s", a.text, sl)
			g.Release(a.reg)
			a = opnd{text: sl}
			defer g.ScratchPop()
		}
		b, err := g.operand(st.B)
		if err != nil {
			return err
		}
		g.Ins("cmpl %s, %s", a.text, b.text)
		g.releaseOp(b)
	}
	g.releaseOp(a)
	g.Ins("%s %s", branchOps[st.Rel], st.Target)
	return nil
}

// genStore evaluates val directly into the destination operand, so simple
// assignments become a single memory-to-memory instruction.
func (g *gen) genStore(addr, val *ir.Node) error {
	if addr.Op == ir.Addr {
		if l, isLocal := g.Fn.LookupLocal(addr.Name); isLocal {
			return g.genInto(val, g.slot(l))
		}
		return g.genInto(val, addr.Name)
	}
	t, ok := g.Alloc()
	if !ok {
		return g.Errf("register pool exhausted")
	}
	// A callee clobbers every pool register, so when the value contains a
	// call it must be computed into the frame before the address register
	// is live.
	if val.ContainsCall() {
		sl, err := g.ScratchPush()
		if err != nil {
			return err
		}
		if err := g.genInto(val, sl); err != nil {
			return err
		}
		if err := g.genInto(addr, t); err != nil {
			return err
		}
		g.Ins("movl %s, (%s)", sl, t)
		g.ScratchPop()
		g.Release(t)
		return nil
	}
	if err := g.genInto(addr, t); err != nil {
		return err
	}
	err := g.genInto(val, "("+t+")")
	g.Release(t)
	return err
}

// operands renders both children of a binary node, spilling a left-hand
// temporary into the frame when the right side contains a call (the callee
// clobbers every pool register; frame slots are safe operands).
func (g *gen) operands(n *ir.Node) (opnd, opnd, bool, error) {
	l, err := g.operand(n.Kids[0])
	if err != nil {
		return opnd{}, opnd{}, false, err
	}
	spilled := false
	if l.reg != "" && (n.Kids[1].ContainsCall() || g.FreeCount() < 2) {
		sl, err := g.ScratchPush()
		if err != nil {
			return opnd{}, opnd{}, false, err
		}
		g.Ins("movl %s, %s", l.text, sl)
		g.Release(l.reg)
		l = opnd{text: sl}
		spilled = true
	}
	r, err := g.operand(n.Kids[1])
	if err != nil {
		return opnd{}, opnd{}, false, err
	}
	return l, r, spilled, nil
}

// threeOp maps directly-encodable binary operators to their 3-operand
// opcode. Sub/Div/Mod subtract the FIRST operand from the second, so the
// emitters below swap operand order where needed.
var threeOp = map[ir.Op]string{
	ir.Add: "addl3", ir.Mul: "mull3", ir.Or: "bisl3", ir.Xor: "xorl3",
}

// genInto evaluates n into the writable operand dst.
func (g *gen) genInto(n *ir.Node, dst string) error {
	switch {
	case g.isLeaf(n):
		src, err := g.leafOperand(n)
		if err != nil {
			return err
		}
		g.Ins("movl %s, %s", src, dst)
		return nil
	case n.Op == ir.Addr: // &local
		l, _ := g.Fn.LookupLocal(n.Name)
		g.Ins("moval %s, %s", g.slot(l), dst)
		return nil
	case n.Op == ir.Load: // *p as an rvalue
		t, ok := g.Alloc()
		if !ok {
			return g.Errf("register pool exhausted")
		}
		if err := g.genInto(n.Kids[0], t); err != nil {
			return err
		}
		g.Ins("movl (%s), %s", t, dst)
		g.Release(t)
		return nil
	case n.Op == ir.Neg || n.Op == ir.Not:
		src, err := g.operand(n.Kids[0])
		if err != nil {
			return err
		}
		op := "mnegl"
		if n.Op == ir.Not {
			op = "mcoml"
		}
		// Unary results form in r0 and move to a memory destination in a
		// second step (the canned and/shr sequences share this shape).
		if registers[dst] {
			g.Ins("%s %s, %s", op, src.text, dst)
		} else {
			g.Ins("%s %s, r0", op, src.text)
			g.Ins("movl r0, %s", dst)
		}
		g.releaseOp(src)
		return nil
	case n.Op == ir.Call:
		if err := g.genCall(n); err != nil {
			return err
		}
		if dst != "r0" {
			g.Ins("movl r0, %s", dst)
		}
		return nil
	case n.Op.IsBinary():
		return g.binary(n, dst)
	}
	return g.Errf("cannot evaluate %s", n)
}

// binary emits a three-operand instruction (or a canned r0 sequence for
// the operators the instruction set lacks) writing straight to dst.
func (g *gen) binary(n *ir.Node, dst string) error {
	l, r, spilled, err := g.operands(n)
	if err != nil {
		return err
	}
	switch n.Op {
	case ir.Add, ir.Mul, ir.Or, ir.Xor:
		g.Ins("%s %s, %s, %s", threeOp[n.Op], l.text, r.text, dst)
	case ir.Sub:
		g.Ins("subl3 %s, %s, %s", r.text, l.text, dst)
	case ir.Div:
		g.Ins("divl3 %s, %s, r0", r.text, l.text)
		if dst != "r0" {
			g.Ins("movl r0, %s", dst)
		}
	case ir.Mod:
		g.Ins("divl3 %s, %s, r0", r.text, l.text)
		g.Ins("mull3 r0, %s, r0", r.text)
		g.Ins("subl3 r0, %s, %s", l.text, dst)
	case ir.And:
		g.Ins("mcoml %s, r0", r.text)
		g.Ins("bicl3 r0, %s, %s", l.text, dst)
	case ir.Shl:
		g.Ins("ashl %s, %s, %s", r.text, l.text, dst)
	case ir.Shr:
		if n.Kids[1].Op == ir.Const {
			g.Ins("ashl $%d, %s, %s", -n.Kids[1].Value, l.text, dst)
		} else {
			// Variable right shift: the value rides in a pool register
			// while r0 carries the negated count.
			src := l.text
			temp := ""
			if !registers[src] {
				reg, ok := g.Alloc()
				if !ok {
					return g.Errf("register pool exhausted")
				}
				temp = reg
				g.Ins("movl %s, %s", src, temp)
				src = temp
			}
			g.Ins("mnegl %s, r0", r.text)
			g.Ins("ashl r0, %s, %s", src, dst)
			if temp != "" {
				g.Release(temp)
			}
		}
	default:
		return g.Errf("no opcode for %s", n.Op)
	}
	g.releaseOp(l)
	g.releaseOp(r)
	if spilled {
		g.ScratchPop()
	}
	return nil
}

// genCall pushes arguments right to left, issues calls, and pops the
// arguments afterwards. Nested calls in argument expressions are safe:
// the callee works strictly below sp, so already-pushed arguments keep.
func (g *gen) genCall(n *ir.Node) error {
	if len(n.Kids) > 3 {
		return g.Errf("call %s: more than 3 arguments", n.Name)
	}
	for i := len(n.Kids) - 1; i >= 0; i-- {
		k := n.Kids[i]
		if g.isLeaf(k) {
			text, err := g.leafOperand(k)
			if err != nil {
				return err
			}
			// A global read renders as a bare symbol, which pushl
			// cannot encode; stage it through a register.
			if k.Op == ir.Load && text == k.Kids[0].Name {
				t, ok := g.Alloc()
				if !ok {
					return g.Errf("register pool exhausted")
				}
				g.Ins("movl %s, %s", text, t)
				g.Ins("pushl %s", t)
				g.Release(t)
			} else {
				g.Ins("pushl %s", text)
			}
			continue
		}
		t, ok := g.Alloc()
		if !ok {
			return g.Errf("register pool exhausted")
		}
		if err := g.genInto(k, t); err != nil {
			return err
		}
		g.Ins("pushl %s", t)
		g.Release(t)
	}
	g.Ins("calls $%d, %s", len(n.Kids), n.Name)
	if n.Name != "exit" && len(n.Kids) > 0 {
		g.Ins("addl2 $%d, sp", 4*len(n.Kids))
	}
	return nil
}
