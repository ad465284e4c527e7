package asm

import (
	"slices"
	"strings"
)

// Operand decodes the text s of one operand of an op instruction on
// source line line. The shared decoders below cover the operand forms
// several targets use; a target writes its own only for a quirk.
type Operand func(d *Dialect, op string, line int, s string) (Arg, error)

// Shape is one opcode's row of an operand table: Args[i] decodes operand
// i, and Checks constrain the classes of the decoded operands.
type Shape struct {
	Args   []Operand
	Checks []Check
}

// maxArgs bounds the operands of any Shape.
const maxArgs = 3

// Check requires operand Arg to fall in one of the classes Want; Msg, a
// format taking the opcode, is the error otherwise. Checks run in list
// order, each as soon as its operand has been decoded.
type Check struct {
	Arg  int
	Want Class
	Msg  string
}

// Class is a set of operand classes, finer than ArgKind in splitting
// memory operands by whether they have a base register.
type Class uint8

// Operand classes.
const (
	ClassReg Class = 1 << iota // register
	ClassImm                   // integer immediate
	ClassMem                   // base register + displacement
	ClassAbs                   // absolute memory reference: a bare symbol
	ClassSym                   // symbol value or branch target

	// Location is every operand an instruction can write.
	Location = ClassReg | ClassMem | ClassAbs
)

func classOf(a Arg) Class {
	switch a.Kind {
	case Reg:
		return ClassReg
	case Imm:
		return ClassImm
	case Mem:
		if a.Reg == "" {
			return ClassAbs
		}
		return ClassMem
	}
	return ClassSym
}

// Table builds an operand table from groups, which maps each
// space-separated list of opcodes to the shape they share.
func Table(groups map[string]Shape) map[string]Shape {
	keys := make([]string, 0, len(groups))
	for ops := range groups {
		keys = append(keys, ops)
	}
	slices.Sort(keys)
	t := map[string]Shape{}
	for _, ops := range keys {
		sh := groups[ops]
		if len(sh.Args) > maxArgs {
			panic("asm: shape with more than three operands")
		}
		for _, op := range strings.Fields(ops) {
			if _, dup := t[op]; dup {
				panic("asm: opcode " + op + " in two groups")
			}
			t[op] = sh
		}
	}
	return t
}

// decode validates and decodes one instruction line (Op != "", not a
// directive) by walking the opcode's row of the operand table.
func (d *Dialect) decode(ln Line) (Instr, error) {
	ins := Instr{Op: ln.Op, Line: ln.Num}
	sh, ok := d.Ops[ln.Op]
	if !ok {
		return ins, d.Errf(ln.Num, "unknown opcode %q", ln.Op)
	}
	if len(ln.Args) != len(sh.Args) {
		return ins, d.Errf(ln.Num, "%s takes %d operands, got %d", ln.Op, len(sh.Args), len(ln.Args))
	}
	if len(sh.Args) == 0 {
		return ins, nil
	}
	var buf [maxArgs]Arg
	args := buf[:len(sh.Args)]
	checks := sh.Checks
	for i, decode := range sh.Args {
		a, err := decode(d, ln.Op, ln.Num, ln.Args[i])
		if err != nil {
			return ins, err
		}
		args[i] = a
		for ; len(checks) > 0 && checks[0].Arg <= i; checks = checks[1:] {
			if c := checks[0]; classOf(args[c.Arg])&c.Want == 0 {
				return ins, d.Errf(ln.Num, c.Msg, ln.Op)
			}
		}
	}
	ins.Args = make([]Arg, len(args))
	copy(ins.Args, args)
	return ins, nil
}

// Errf builds an AsmError for the dialect's architecture.
func (d *Dialect) Errf(line int, format string, args ...any) error {
	return Errf(d.Arch, line, format, args...)
}

// reserved reports whether a label-shaped token is kept for register
// syntax.
func (d *Dialect) reserved(s string) bool { return d.Reserved != nil && d.Reserved(s) }

// Register decodes a register of the dialect's register file.
func Register(d *Dialect, _ string, line int, s string) (Arg, error) {
	if !d.Registers[s] {
		return Arg{}, d.Errf(line, "unknown register %q", s)
	}
	return Arg{Kind: Reg, Reg: s, Raw: s}, nil
}

// Label decodes a branch or call target: a symbol that is neither a
// number nor reserved for register syntax.
func Label(d *Dialect, _ string, line int, s string) (Arg, error) {
	if _, ok := ParseInt(s); ok {
		return Arg{}, d.Errf(line, "numeric branch target %q", s)
	}
	if !DefaultValidLabel(s) || d.reserved(s) {
		return Arg{}, d.Errf(line, "bad branch target %q", s)
	}
	return Arg{Kind: Sym, Sym: s, Raw: s}, nil
}

// Immediate decodes a bare integer immediate of any width.
func Immediate(d *Dialect, _ string, line int, s string) (Arg, error) {
	v, ok := ParseInt(s)
	if !ok {
		return Arg{}, d.Errf(line, "bad immediate %q", s)
	}
	return Arg{Kind: Imm, Imm: v, Raw: s}, nil
}

// Address decodes a symbol whose address is the operand's value.
func Address(d *Dialect, _ string, line int, s string) (Arg, error) {
	if _, isNum := ParseInt(s); isNum || !DefaultValidLabel(s) {
		return Arg{}, d.Errf(line, "bad address %q", s)
	}
	return Arg{Kind: Sym, Sym: s, Raw: s}, nil
}

// ImmOrSym decodes an integer immediate or a symbol's address.
func ImmOrSym(d *Dialect, op string, line int, s string) (Arg, error) {
	if v, ok := ParseInt(s); ok {
		return Arg{Kind: Imm, Imm: v, Raw: s}, nil
	}
	if DefaultValidLabel(s) {
		return Arg{Kind: Sym, Sym: s, Raw: s}, nil
	}
	return Arg{}, d.Errf(line, "bad %s source %q", op, s)
}

// ParenMem decodes disp(reg), (reg), or a bare symbol (an absolute
// reference). Bare integers are rejected.
func ParenMem(d *Dialect, _ string, line int, s string) (Arg, error) {
	if i := strings.IndexByte(s, '('); i >= 0 {
		return d.BaseDisp(line, s, i)
	}
	if _, ok := ParseInt(s); ok {
		return Arg{}, d.Errf(line, "bare integer memory operand %q", s)
	}
	if DefaultValidLabel(s) && !d.reserved(s) {
		return Arg{Kind: Mem, Sym: s, Raw: s}, nil
	}
	return Arg{}, d.Errf(line, "bad memory operand %q", s)
}

// RegIndirect decodes (reg): a memory operand with a base register and
// no displacement.
func RegIndirect(d *Dialect, op string, line int, s string) (Arg, error) {
	m, err := ParenMem(d, op, line, s)
	if err != nil || m.Reg == "" || m.Imm != 0 {
		return Arg{}, d.Errf(line, "%s operand must be (reg)", op)
	}
	return m, nil
}

// BaseDisp decodes the memory operand disp(base) or (base) whose '(' is
// s[i].
func (d *Dialect) BaseDisp(line int, s string, i int) (Arg, error) {
	if s[len(s)-1] != ')' {
		return Arg{}, d.Errf(line, "bad memory operand %q", s)
	}
	disp := int64(0)
	if i > 0 {
		v, ok := ParseInt(s[:i])
		if !ok {
			return Arg{}, d.Errf(line, "bad displacement in %q", s)
		}
		disp = v
	}
	base := s[i+1 : len(s)-1]
	if !d.Registers[base] {
		return Arg{}, d.Errf(line, "bad base register in %q", s)
	}
	return Arg{Kind: Mem, Reg: base, Imm: disp, Raw: s}, nil
}

// BracketMem decodes a bracketed memory operand: [reg], [reg+disp], or
// [reg-disp].
func BracketMem(d *Dialect, _ string, line int, s string) (Arg, error) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return Arg{}, d.Errf(line, "memory operand %q needs brackets", s)
	}
	inner := s[1 : len(s)-1]
	base := inner
	disp := int64(0)
	if i := strings.IndexAny(inner[min(1, len(inner)):], "+-"); i >= 0 {
		base = inner[:i+1]
		v, ok := ParseInt(inner[i+1:])
		if !ok {
			return Arg{}, d.Errf(line, "bad displacement in %q", s)
		}
		disp = v
	}
	if !d.Registers[base] {
		return Arg{}, d.Errf(line, "bad base register in %q", s)
	}
	return Arg{Kind: Mem, Reg: base, Imm: disp, Raw: s}, nil
}

// DollarPrefixed reports whether s starts with '$': in the dialects that
// reserve such tokens, a register or literal prefix.
func DollarPrefixed(s string) bool { return strings.HasPrefix(s, "$") }
