package x86

import (
	"fmt"

	"srcg/internal/asm"
	"srcg/internal/machine"
)

// Execute implements target.Toolchain: a flat interpretation of the linked
// instruction stream with AT&T operand order, 32-bit wrapping arithmetic,
// and return addresses kept on the machine stack.
func (t *Toolchain) Execute(img *asm.Image) (string, error) {
	c := img.Boot(registers, "%esp")
	// step sets the PC itself; Run's assignment of it is then a no-op.
	return c.Run("x86", len(img.Instrs), func(pc int) (int, error) {
		err := step(c, img, img.Instrs[pc])
		return c.PC, err
	})
}

func wrap32(v int64) int64 { return int64(int32(v)) }

// value reads an operand: immediate, symbol address, register, or memory.
func value(c *machine.CPU, img *asm.Image, a asm.Arg) (int64, error) {
	switch a.Kind {
	case asm.Imm:
		return a.Imm, nil
	case asm.Sym:
		addr, ok := img.Resolve(a.Sym)
		if !ok {
			return 0, fmt.Errorf("x86: undefined symbol %q", a.Sym)
		}
		return int64(addr), nil
	case asm.Reg:
		return c.Regs[a.Reg], nil
	case asm.Mem:
		addr, err := ea(c, img, a)
		if err != nil {
			return 0, err
		}
		return machine.SignExtend(c.Mem.Load(addr, 4), 32), nil
	}
	return 0, fmt.Errorf("x86: unreadable operand %v", a)
}

// write stores v into a register or memory operand.
func write(c *machine.CPU, img *asm.Image, a asm.Arg, v int64) error {
	switch a.Kind {
	case asm.Reg:
		c.Regs[a.Reg] = wrap32(v)
		return nil
	case asm.Mem:
		addr, err := ea(c, img, a)
		if err != nil {
			return err
		}
		c.Mem.Store(addr, 4, machine.Truncate(v, 32))
		return nil
	}
	return fmt.Errorf("x86: unwritable operand %v", a)
}

func push(c *machine.CPU, v int64) {
	c.Regs["%esp"] -= 4
	c.Mem.Store(uint64(c.Regs["%esp"]), 4, machine.Truncate(v, 32))
}

func pop(c *machine.CPU) int64 {
	v := machine.SignExtend(c.Mem.Load(uint64(c.Regs["%esp"]), 4), 32)
	c.Regs["%esp"] += 4
	return v
}

func step(c *machine.CPU, img *asm.Image, ins asm.Instr) error {
	next := c.PC + 1
	switch ins.Op {
	case "movl":
		v, err := value(c, img, ins.Args[0])
		if err != nil {
			return err
		}
		if err := write(c, img, ins.Args[1], v); err != nil {
			return err
		}
	case "addl", "subl", "imull", "andl", "orl", "xorl":
		s, err := value(c, img, ins.Args[0])
		if err != nil {
			return err
		}
		d, err := value(c, img, ins.Args[1])
		if err != nil {
			return err
		}
		var r int64
		switch ins.Op {
		case "addl":
			r = d + s
		case "subl":
			r = d - s
		case "imull":
			r = d * s
		case "andl":
			r = d & s
		case "orl":
			r = d | s
		case "xorl":
			r = d ^ s
		}
		if err := write(c, img, ins.Args[1], wrap32(r)); err != nil {
			return err
		}
	case "sall", "sarl":
		cnt, err := value(c, img, ins.Args[0])
		if err != nil {
			return err
		}
		d := c.Regs[ins.Args[1].Reg]
		sh := uint(cnt) & 31
		if ins.Op == "sall" {
			c.Regs[ins.Args[1].Reg] = wrap32(d << sh)
		} else {
			c.Regs[ins.Args[1].Reg] = int64(int32(d) >> sh)
		}
	case "negl", "notl":
		v, err := value(c, img, ins.Args[0])
		if err != nil {
			return err
		}
		if ins.Op == "negl" {
			v = -v
		} else {
			v = ^v
		}
		if err := write(c, img, ins.Args[0], wrap32(v)); err != nil {
			return err
		}
	case "cltd":
		if c.Regs["%eax"] < 0 {
			c.Regs["%edx"] = -1
		} else {
			c.Regs["%edx"] = 0
		}
	case "idivl":
		divisor, err := value(c, img, ins.Args[0])
		if err != nil {
			return err
		}
		if int32(divisor) == 0 {
			return fmt.Errorf("x86: division by zero")
		}
		dividend := c.Regs["%edx"]<<32 | int64(uint32(c.Regs["%eax"]))
		c.Regs["%eax"] = wrap32(dividend / int64(int32(divisor)))
		c.Regs["%edx"] = wrap32(dividend % int64(int32(divisor)))
	case "cmpl":
		s, err := value(c, img, ins.Args[0])
		if err != nil {
			return err
		}
		d, err := value(c, img, ins.Args[1])
		if err != nil {
			return err
		}
		c.CCValid, c.CCa, c.CCb = true, d, s
	case "je", "jne", "jl", "jle", "jg", "jge":
		if !c.CCValid {
			return fmt.Errorf("x86: conditional jump with no condition codes set")
		}
		taken := false
		switch ins.Op {
		case "je":
			taken = c.CCa == c.CCb
		case "jne":
			taken = c.CCa != c.CCb
		case "jl":
			taken = c.CCa < c.CCb
		case "jle":
			taken = c.CCa <= c.CCb
		case "jg":
			taken = c.CCa > c.CCb
		case "jge":
			taken = c.CCa >= c.CCb
		}
		if taken {
			idx, err := img.CodeLabel(ins.Args[0].Sym)
			if err != nil {
				return err
			}
			next = idx
		}
	case "jmp":
		idx, err := img.CodeLabel(ins.Args[0].Sym)
		if err != nil {
			return err
		}
		next = idx
	case "pushl":
		v, err := value(c, img, ins.Args[0])
		if err != nil {
			return err
		}
		push(c, v)
	case "popl":
		c.Regs[ins.Args[0].Reg] = pop(c)
	case "leal":
		addr, err := ea(c, img, ins.Args[0])
		if err != nil {
			return err
		}
		c.Regs[ins.Args[1].Reg] = wrap32(int64(addr))
	case "call":
		sym := ins.Args[0].Sym
		if img.Builtin(sym) {
			if err := c.Builtin("x86", sym, arg); err != nil {
				return err
			}
			break
		}
		idx, err := img.CodeLabel(sym)
		if err != nil {
			return err
		}
		push(c, int64(c.PC+1))
		next = idx
	case "ret":
		next = int(pop(c))
	default:
		return fmt.Errorf("x86: unimplemented opcode %q", ins.Op)
	}
	c.PC = next
	return nil
}

// arg reads the i-th word argument of a builtin call: the stack at
// %esp, where builtin calls push no return address.
func arg(c *machine.CPU, i int) int64 {
	return machine.SignExtend(c.Mem.Load(uint64(c.Regs["%esp"])+uint64(4*i), 4), 32)
}

// ea computes the effective address of a memory operand.
func ea(c *machine.CPU, img *asm.Image, a asm.Arg) (uint64, error) { return img.Addr(a, c.Regs[a.Reg]) }
