package cc

import (
	"slices"
	"strings"

	"srcg/internal/ir"
)

// ISA is a load/store target's instruction set as LoadStore lowers to it:
// its registers, one template per instruction form, the function prologue
// and epilogue, and a hook for each way the target's lowering departs
// from LoadStore's. A template takes its operands in the order its
// comment gives; indexed verbs (%[2]s) put them in the target's order.
type ISA struct {
	// Arch names the target in compile errors.
	Arch string
	// Pool is the expression-temporary allocation order.
	Pool []string
	// Args carry a call's arguments, in order, and a function's
	// parameters on entry; Ret carries its result. A function takes at
	// most len(Args) parameters and a call at most len(Args) arguments.
	Args []string
	Ret  string
	// Zero reads as zero: the default branch compares against it.
	Zero string
	// Slot renders the frame slot at a (negative) displacement from the
	// frame pointer.
	Slot func(disp int) string
	// Stage, when set, is the register a global's address passes through
	// before a store, for an assembler that takes no symbol as a memory
	// operand; a global load then stages through its own destination.
	Stage string

	Const      string // (reg, value): load a constant
	Load       string // (reg, mem): load a word from a slot or a global
	Store      string // (reg, mem): store a word to a slot or a global
	LoadInd    string // (reg, base): load a word through a register
	StoreInd   string // (reg, base): store a word through a register
	AddrLocal  string // (reg, disp): the address of the frame slot at disp
	AddrGlobal string // (reg, name): the address of a global symbol
	Move       string // (dst, src)
	Neg, Not   string // (dst, src)
	Jump       string // (label)
	Call       string // (name)
	// Nop fills a call's delay slot when no argument does; empty for a
	// target without delay slots.
	Nop string
	// Ops are the binary operators' mnemonics, Op3 their form: (mnemonic,
	// dst, left, right). Fixup, for an operator that has one, is a line
	// over the result register that follows the operation.
	Ops   map[ir.Op]string
	Op3   string
	Fixup map[ir.Op]string
	// InPlace targets write a unary or binary result over its (left)
	// operand; the others take a fresh pool register for it.
	InPlace bool
	// Bcc are the default branch's templates: (left, right, label).
	Bcc map[ir.Rel]string
	// Prologue and Epilogue are a function's entry and exit lines. A line
	// names the frame size F in bytes with indexed verbs: %[1]d is F,
	// %[2]d is -F, %[3]d is F-4 and %[4]d is F-8.
	Prologue, Epilogue []string

	// Branch, when set, lowers a conditional branch in place of Bcc.
	Branch func(g *LoadStore, st *ir.Stmt) error
	// MulDiv, when set, lowers multiply, divide and remainder in place of
	// Ops, leaving the result in Ret or in a fresh pool register, which
	// it returns.
	MulDiv func(g *LoadStore, n *ir.Node) (string, error)
	// Fill, when set, reports whether arg, the last argument of a call to
	// callee, loads in the call's delay slot; it must be a leaf.
	Fill func(g *LoadStore, callee string, arg *ir.Node) bool
	// Clobbers reports whether evaluating n overwrites the argument
	// registers, so that a call stages its arguments through the frame;
	// nil means n contains a call.
	Clobbers func(n *ir.Node) bool
}

// Compile lowers mini-C source to the target's assembly.
func (isa *ISA) Compile(src string) (string, error) {
	g := &LoadStore{
		Backend: Backend{Arch: isa.Arch, Pool: isa.Pool, Frame: isa.Slot, MaxParams: len(isa.Args)},
		isa:     isa,
	}
	return g.Backend.Compile(src, g.genFunc)
}

// LoadStore is the code generator of the load/store targets: every named
// value lives in a frame slot below the frame pointer, a global is read
// and written by its symbol, and expressions are evaluated in the pool
// registers, a value that must survive a call waiting in a spill slot.
type LoadStore struct {
	Backend
	isa *ISA
	// frame holds the operands of the function's prologue and epilogue
	// lines: its frame size F, -F, F-4 and F-8.
	frame [4]any
}

// isLeaf reports whether n loads into a register without temporaries: a
// constant, a named load, or an address.
func isLeaf(n *ir.Node) bool {
	switch n.Op {
	case ir.Const, ir.Addr:
		return true
	case ir.Load:
		return n.Kids[0].Op == ir.Addr
	}
	return false
}

// Temp takes a free pool register.
func (g *LoadStore) Temp() (string, error) {
	r, ok := g.Alloc()
	if !ok {
		return "", g.Errf("register pool exhausted")
	}
	return r, nil
}

// slotOff returns the frame-pointer displacement of a named local or
// parameter: parameters occupy the first slots below the frame pointer,
// locals the next.
func (g *LoadStore) slotOff(l ir.Local) int {
	if l.IsParam {
		return -4 * (l.Index + 1)
	}
	return -4 * (g.Params + l.Index + 1)
}

func (g *LoadStore) slot(l ir.Local) string { return g.Frame(g.slotOff(l)) }

// frameLines emits prologue or epilogue lines for the current frame.
func (g *LoadStore) frameLines(lines []string) {
	for _, line := range lines {
		if strings.Contains(line, "%[") {
			g.Ins(line, g.frame[:]...)
		} else {
			g.Ins(line)
		}
	}
}

func (g *LoadStore) genFunc(f *ir.Func) error {
	g.Slots = g.Params + g.Locals
	size := 8 + 4*g.Slots + 4*MaxScratch
	g.frame = [4]any{size, -size, size - 4, size - 8}
	g.Raw("\t.globl " + f.Name)
	g.Label(f.Name)
	g.frameLines(g.isa.Prologue)
	for _, l := range f.Locals {
		if l.IsParam {
			g.Ins(g.isa.Store, g.isa.Args[l.Index], g.slot(l))
		}
	}
	for _, st := range f.Body {
		if err := g.genStmt(st); err != nil {
			return err
		}
	}
	if !EndsFlow(f.Body) {
		g.frameLines(g.isa.Epilogue)
	}
	return nil
}

func (g *LoadStore) genStmt(st *ir.Stmt) error {
	switch st.Kind {
	case ir.SLabel:
		g.Label(st.Target)
	case ir.SGoto:
		g.Ins(g.isa.Jump, st.Target)
	case ir.SBranch:
		if g.isa.Branch != nil {
			return g.isa.Branch(g, st)
		}
		return g.branch(st)
	case ir.SStore:
		r, err := g.result(st.Val)
		if err != nil {
			return err
		}
		err = g.storeReg(r, st.Addr)
		g.Release(r)
		return err
	case ir.SExpr:
		if st.Val != nil && st.Val.Op == ir.Call {
			return g.call(st.Val)
		}
	case ir.SRet:
		if st.Val != nil {
			if isLeaf(st.Val) {
				if err := g.loadLeaf(st.Val, g.isa.Ret); err != nil {
					return err
				}
			} else {
				r, err := g.EvalReg(st.Val)
				if err != nil {
					return err
				}
				g.Ins(g.isa.Move, g.isa.Ret, r)
				g.Release(r)
			}
		}
		g.frameLines(g.isa.Epilogue)
	}
	return nil
}

// branch compares two registers and branches in one instruction; a
// comparison against constant zero reads the zero register.
func (g *LoadStore) branch(st *ir.Stmt) error {
	rA, err := g.EvalReg(st.A)
	if err != nil {
		return err
	}
	rB := g.isa.Zero
	if st.B.Op != ir.Const || st.B.Value != 0 {
		rB, err = g.EvalReg(st.B)
		if err != nil {
			return err
		}
		defer g.Release(rB)
	}
	g.Release(rA)
	g.Ins(g.isa.Bcc[st.Rel], rA, rB, st.Target)
	return nil
}

// loadLeaf emits code placing leaf n into register r.
func (g *LoadStore) loadLeaf(n *ir.Node, r string) error {
	switch n.Op {
	case ir.Const:
		g.Ins(g.isa.Const, r, n.Value)
	case ir.Load:
		name := n.Kids[0].Name
		if l, isLocal := g.Fn.LookupLocal(name); isLocal {
			g.Ins(g.isa.Load, r, g.slot(l))
		} else if g.isa.Stage != "" {
			g.Ins(g.isa.AddrGlobal, r, name)
			g.Ins(g.isa.LoadInd, r, r)
		} else {
			g.Ins(g.isa.Load, r, name)
		}
	case ir.Addr:
		if l, isLocal := g.Fn.LookupLocal(n.Name); isLocal {
			g.Ins(g.isa.AddrLocal, r, g.slotOff(l))
		} else {
			g.Ins(g.isa.AddrGlobal, r, n.Name)
		}
	default:
		return g.Errf("not a leaf: %s", n)
	}
	return nil
}

// storeReg stores register r to the location addr names: a frame slot, a
// global, or a computed pointer.
func (g *LoadStore) storeReg(r string, addr *ir.Node) error {
	if addr.Op == ir.Addr {
		if l, isLocal := g.Fn.LookupLocal(addr.Name); isLocal {
			g.Ins(g.isa.Store, r, g.slot(l))
		} else if g.isa.Stage != "" {
			g.Ins(g.isa.AddrGlobal, g.isa.Stage, addr.Name)
			g.Ins(g.isa.StoreInd, r, g.isa.Stage)
		} else {
			g.Ins(g.isa.Store, r, addr.Name)
		}
		return nil
	}
	ra, err := g.EvalReg(addr)
	if err != nil {
		return err
	}
	g.Ins(g.isa.StoreInd, r, ra)
	g.Release(ra)
	return nil
}

// result evaluates n into a register: Ret after a call or after a MulDiv
// that leaves its result there, otherwise a fresh pool register.
func (g *LoadStore) result(n *ir.Node) (string, error) {
	switch {
	case n.Op == ir.Call:
		return g.isa.Ret, g.call(n)
	case g.byMulDiv(n):
		return g.isa.MulDiv(g, n)
	}
	return g.EvalReg(n)
}

// byMulDiv reports whether the MulDiv hook lowers n.
func (g *LoadStore) byMulDiv(n *ir.Node) bool {
	return g.isa.MulDiv != nil && (n.Op == ir.Mul || n.Op == ir.Div || n.Op == ir.Mod)
}

// EvalReg evaluates n into a freshly allocated pool register.
func (g *LoadStore) EvalReg(n *ir.Node) (string, error) {
	switch {
	case isLeaf(n):
		r, err := g.Temp()
		if err != nil {
			return "", err
		}
		return r, g.loadLeaf(n, r)
	case n.Op == ir.Load: // *p as an rvalue
		r, err := g.EvalReg(n.Kids[0])
		if err != nil {
			return "", err
		}
		g.Ins(g.isa.LoadInd, r, r)
		return r, nil
	case n.Op == ir.Neg || n.Op == ir.Not:
		r, err := g.EvalReg(n.Kids[0])
		if err != nil {
			return "", err
		}
		d := r
		if !g.isa.InPlace {
			if d, err = g.Temp(); err != nil {
				return "", err
			}
		}
		if n.Op == ir.Neg {
			g.Ins(g.isa.Neg, d, r)
		} else {
			g.Ins(g.isa.Not, d, r)
		}
		if d != r {
			g.Release(r)
		}
		return d, nil
	case n.Op == ir.Call || g.byMulDiv(n):
		r, err := g.result(n)
		if err != nil || r != g.isa.Ret {
			return r, err
		}
		d, err := g.Temp()
		if err != nil {
			return "", err
		}
		g.Ins(g.isa.Move, d, r)
		return d, nil
	case n.Op.IsBinary():
		return g.binary(n)
	}
	return "", g.Errf("cannot evaluate %s", n)
}

func (g *LoadStore) binary(n *ir.Node) (string, error) {
	op, ok := g.isa.Ops[n.Op]
	if !ok {
		return "", g.Errf("no opcode for %s", n.Op)
	}
	// The right operand needs a register, and so does the result unless
	// it overwrites the left one.
	free := 2
	if g.isa.InPlace {
		free = 1
	}
	l, r, err := g.Operands(n, free)
	if err != nil {
		return "", err
	}
	d := l
	if !g.isa.InPlace {
		if d, err = g.Temp(); err != nil {
			return "", err
		}
	}
	g.Ins(g.isa.Op3, op, d, l, r)
	if fix, ok := g.isa.Fixup[n.Op]; ok {
		g.Ins(fix, d)
	}
	if d != l {
		g.Release(l)
	}
	g.Release(r)
	return d, nil
}

// Operands evaluates both operands of binary node n into pool registers.
// The left value waits in a spill slot while the right one is evaluated
// when the right one contains a call, which clobbers the pool, or when
// fewer than free pool registers remain.
func (g *LoadStore) Operands(n *ir.Node, free int) (string, string, error) {
	l, err := g.EvalReg(n.Kids[0])
	if err != nil {
		return "", "", err
	}
	if !n.Kids[1].ContainsCall() && g.FreeCount() >= free {
		r, err := g.EvalReg(n.Kids[1])
		return l, r, err
	}
	sl, err := g.ScratchPush()
	if err != nil {
		return "", "", err
	}
	g.Ins(g.isa.Store, l, sl)
	g.Release(l)
	r, err := g.EvalReg(n.Kids[1])
	if err != nil {
		return "", "", err
	}
	if l, err = g.Temp(); err != nil {
		return "", "", err
	}
	g.Ins(g.isa.Load, l, sl)
	g.ScratchPop()
	return l, r, nil
}

// call lowers a call. When an argument would overwrite the argument
// registers while a later one is evaluated, every argument is evaluated
// into a spill slot first and loaded from there.
func (g *LoadStore) call(n *ir.Node) error {
	if len(n.Kids) > len(g.isa.Args) {
		return g.Errf("call %s: more than %d arguments", n.Name, len(g.isa.Args))
	}
	clobbers := g.isa.Clobbers
	if clobbers == nil {
		clobbers = (*ir.Node).ContainsCall
	}
	if len(n.Kids) < 2 || !slices.ContainsFunc(n.Kids, clobbers) {
		return g.CallArgs(n.Name, n.Kids)
	}
	slots := make([]string, len(n.Kids))
	for i, k := range n.Kids {
		r, err := g.EvalReg(k)
		if err != nil {
			return err
		}
		sl, err := g.ScratchPush()
		if err != nil {
			return err
		}
		g.Ins(g.isa.Store, r, sl)
		g.Release(r)
		slots[i] = sl
	}
	for i, sl := range slots {
		g.Ins(g.isa.Load, g.isa.Args[i], sl)
	}
	for range slots {
		g.ScratchPop()
	}
	g.emitCall(n.Name)
	return nil
}

// CallArgs loads args into the argument registers in order and calls
// callee, the last argument in the delay slot when Fill allows.
func (g *LoadStore) CallArgs(callee string, args []*ir.Node) error {
	for i, k := range args {
		dst := g.isa.Args[i]
		if i == len(args)-1 && g.isa.Fill != nil && g.isa.Fill(g, callee, k) {
			g.Ins(g.isa.Call, callee)
			return g.loadLeaf(k, dst)
		}
		if isLeaf(k) {
			if err := g.loadLeaf(k, dst); err != nil {
				return err
			}
			continue
		}
		r, err := g.EvalReg(k)
		if err != nil {
			return err
		}
		g.Ins(g.isa.Move, dst, r)
		g.Release(r)
	}
	g.emitCall(callee)
	return nil
}

func (g *LoadStore) emitCall(callee string) {
	g.Ins(g.isa.Call, callee)
	if g.isa.Nop != "" {
		g.Ins(g.isa.Nop)
	}
}
