package vax

import (
	"fmt"

	"srcg/internal/asm"
	"srcg/internal/machine"
)

// Execute implements target.Toolchain. cmpl/tstl latch their operands into
// the condition codes for a later conditional jump; calls saves the old
// argument pointer on the stack and points ap at the incoming arguments.
func (t *Toolchain) Execute(img *asm.Image) (string, error) {
	c := img.Boot(registers, "sp")
	return c.Run("vax", len(img.Instrs), func(pc int) (int, error) {
		return step(c, img, img.Instrs[pc])
	})
}

func wrap32(v int64) int64 { return int64(int32(v)) }

// value reads any data operand: immediate, symbol address, register, or
// memory.
func value(c *machine.CPU, img *asm.Image, a asm.Arg) (int64, error) {
	switch a.Kind {
	case asm.Imm:
		return a.Imm, nil
	case asm.Sym:
		addr, ok := img.Resolve(a.Sym)
		if !ok {
			return 0, fmt.Errorf("vax: undefined symbol %q", a.Sym)
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
	return 0, fmt.Errorf("vax: unreadable operand")
}

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
	return fmt.Errorf("vax: operand not writable")
}

// ashl shifts left by a signed count; a negative count shifts
// arithmetically right.
func ashl(src, count int64) int64 {
	if count >= 0 {
		if count > 63 {
			count = 63
		}
		return wrap32(src << uint(count))
	}
	count = -count
	if count > 31 {
		count = 31
	}
	return int64(int32(src) >> uint(count))
}

func step(c *machine.CPU, img *asm.Image, ins asm.Instr) (int, error) {
	next := c.PC + 1
	v := func(i int) (int64, error) { return value(c, img, ins.Args[i]) }
	switch ins.Op {
	case "movl", "mnegl", "mcoml":
		s, err := v(0)
		if err != nil {
			return 0, err
		}
		switch ins.Op {
		case "mnegl":
			s = -s
		case "mcoml":
			s = ^s
		}
		return next, write(c, img, ins.Args[1], s)
	case "moval":
		addr, err := ea(c, img, ins.Args[0])
		if err != nil {
			return 0, err
		}
		return next, write(c, img, ins.Args[1], int64(addr))
	case "pushl":
		s, err := v(0)
		if err != nil {
			return 0, err
		}
		c.Regs["sp"] -= 4
		c.Mem.Store(uint64(c.Regs["sp"]), 4, machine.Truncate(s, 32))
	case "addl2", "subl2":
		s, err := v(0)
		if err != nil {
			return 0, err
		}
		d, err := v(1)
		if err != nil {
			return 0, err
		}
		if ins.Op == "addl2" {
			d += s
		} else {
			d -= s
		}
		return next, write(c, img, ins.Args[1], d)
	case "addl3", "subl3", "mull3", "divl3", "bisl3", "xorl3", "bicl3", "ashl":
		s1, err := v(0)
		if err != nil {
			return 0, err
		}
		s2, err := v(1)
		if err != nil {
			return 0, err
		}
		var r int64
		switch ins.Op {
		case "addl3":
			r = s1 + s2
		case "subl3":
			r = s2 - s1
		case "mull3":
			r = s1 * s2
		case "divl3":
			if int32(s1) == 0 {
				return 0, fmt.Errorf("vax: division by zero")
			}
			r = int64(int32(s2) / int32(s1))
		case "bisl3":
			r = s1 | s2
		case "xorl3":
			r = s1 ^ s2
		case "bicl3":
			r = s2 &^ s1
		case "ashl":
			r = ashl(s2, s1)
		}
		return next, write(c, img, ins.Args[2], r)
	case "cmpl":
		a, err := v(0)
		if err != nil {
			return 0, err
		}
		b, err := v(1)
		if err != nil {
			return 0, err
		}
		c.CCValid, c.CCa, c.CCb = true, a, b
	case "tstl":
		a, err := v(0)
		if err != nil {
			return 0, err
		}
		c.CCValid, c.CCa, c.CCb = true, a, 0
	case "jeql", "jneq", "jlss", "jleq", "jgtr", "jgeq":
		if !c.CCValid {
			return 0, fmt.Errorf("vax: conditional jump with no condition codes set")
		}
		taken := false
		switch ins.Op {
		case "jeql":
			taken = c.CCa == c.CCb
		case "jneq":
			taken = c.CCa != c.CCb
		case "jlss":
			taken = c.CCa < c.CCb
		case "jleq":
			taken = c.CCa <= c.CCb
		case "jgtr":
			taken = c.CCa > c.CCb
		case "jgeq":
			taken = c.CCa >= c.CCb
		}
		if taken {
			return img.CodeLabel(ins.Args[0].Sym)
		}
	case "jbr":
		return img.CodeLabel(ins.Args[0].Sym)
	case "calls":
		sym := ins.Args[1].Sym
		if img.Builtin(sym) {
			return next, c.Builtin("vax", sym, arg)
		}
		idx, err := img.CodeLabel(sym)
		if err != nil {
			return 0, err
		}
		c.Regs["sp"] -= 4
		c.Mem.Store(uint64(c.Regs["sp"]), 4, machine.Truncate(c.Regs["ap"], 32))
		c.Regs["ap"] = c.Regs["sp"]
		c.RetStack = append(c.RetStack, c.PC+1)
		return idx, nil
	case "ret":
		if len(c.RetStack) == 0 {
			return 0, fmt.Errorf("vax: ret with no call in progress")
		}
		c.Regs["ap"] = machine.SignExtend(c.Mem.Load(uint64(c.Regs["sp"]), 4), 32)
		c.Regs["sp"] += 4
		next = c.RetStack[len(c.RetStack)-1]
		c.RetStack = c.RetStack[:len(c.RetStack)-1]
		return next, nil
	default:
		return 0, fmt.Errorf("vax: unimplemented opcode %q", ins.Op)
	}
	return next, nil
}

// arg reads the i-th word argument of a builtin call: the stack at sp.
func arg(c *machine.CPU, i int) int64 {
	return machine.SignExtend(c.Mem.Load(uint64(c.Regs["sp"])+uint64(4*i), 4), 32)
}

// ea computes the address of a memory operand.
func ea(c *machine.CPU, img *asm.Image, a asm.Arg) (uint64, error) { return img.Addr(a, c.Regs[a.Reg]) }
