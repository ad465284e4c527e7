package mips

import (
	"fmt"
	"strconv"

	"srcg/internal/asm"
	"srcg/internal/machine"
)

// Execute implements target.Toolchain. $0 is hardwired to zero; mult/div
// deposit their results in the hidden hi/lo registers, which only
// mflo/mfhi can observe.
func (t *Toolchain) Execute(img *asm.Image) (string, error) {
	c := img.Boot(registers, "$sp")
	return c.Run("mips", len(img.Instrs), func(pc int) (int, error) {
		return step(c, img, img.Instrs[pc])
	})
}

func wrap32(v int64) int64 { return int64(int32(v)) }

func getReg(c *machine.CPU, r string) int64 {
	if r == "$0" {
		return 0
	}
	return c.Regs[r]
}

func setReg(c *machine.CPU, r string, v int64) {
	if r == "$0" {
		return
	}
	c.Regs[r] = wrap32(v)
}

func operand(c *machine.CPU, a asm.Arg) int64 {
	if a.Kind == asm.Imm {
		return a.Imm
	}
	return getReg(c, a.Reg)
}

func step(c *machine.CPU, img *asm.Image, ins asm.Instr) (int, error) {
	next := c.PC + 1
	switch ins.Op {
	case "addu", "subu", "add", "and", "or", "xor", "nor", "sllv", "srav":
		a := getReg(c, ins.Args[1].Reg)
		b := operand(c, ins.Args[2])
		var r int64
		switch ins.Op {
		case "add", "addu":
			r = a + b
		case "subu":
			r = a - b
		case "and":
			r = a & b
		case "or":
			r = a | b
		case "xor":
			r = a ^ b
		case "nor":
			r = ^(a | b)
		case "sllv":
			r = a << (uint(b) & 31)
		case "srav":
			r = int64(int32(a) >> (uint(b) & 31))
		}
		setReg(c, ins.Args[0].Reg, r)
	case "lw":
		addr, err := img.Addr(ins.Args[1], getReg(c, ins.Args[1].Reg))
		if err != nil {
			return 0, err
		}
		setReg(c, ins.Args[0].Reg, machine.SignExtend(c.Mem.Load(addr, 4), 32))
	case "sw":
		addr, err := img.Addr(ins.Args[1], getReg(c, ins.Args[1].Reg))
		if err != nil {
			return 0, err
		}
		c.Mem.Store(addr, 4, machine.Truncate(getReg(c, ins.Args[0].Reg), 32))
	case "li":
		setReg(c, ins.Args[0].Reg, ins.Args[1].Imm)
	case "la":
		addr, ok := img.Resolve(ins.Args[1].Sym)
		if !ok {
			return 0, fmt.Errorf("mips: undefined symbol %q", ins.Args[1].Sym)
		}
		setReg(c, ins.Args[0].Reg, int64(addr))
	case "mult":
		full := int64(int32(getReg(c, ins.Args[0].Reg))) * int64(int32(getReg(c, ins.Args[1].Reg)))
		c.Hidden["lo"] = wrap32(full)
		c.Hidden["hi"] = wrap32(full >> 32)
	case "div":
		a, b := int32(getReg(c, ins.Args[0].Reg)), int32(getReg(c, ins.Args[1].Reg))
		if b == 0 {
			return 0, fmt.Errorf("mips: division by zero")
		}
		c.Hidden["lo"] = int64(a / b)
		c.Hidden["hi"] = int64(a % b)
	case "mflo":
		setReg(c, ins.Args[0].Reg, c.Hidden["lo"])
	case "mfhi":
		setReg(c, ins.Args[0].Reg, c.Hidden["hi"])
	case "beq", "bne", "blt", "ble", "bgt", "bge":
		a := getReg(c, ins.Args[0].Reg)
		b := getReg(c, ins.Args[1].Reg)
		taken := false
		switch ins.Op {
		case "beq":
			taken = a == b
		case "bne":
			taken = a != b
		case "blt":
			taken = a < b
		case "ble":
			taken = a <= b
		case "bgt":
			taken = a > b
		case "bge":
			taken = a >= b
		}
		if taken {
			return img.CodeLabel(ins.Args[2].Sym)
		}
	case "j":
		return img.CodeLabel(ins.Args[0].Sym)
	case "jal":
		sym := ins.Args[0].Sym
		if img.Builtin(sym) {
			c.Regs["$31"] = int64(c.PC + 1)
			if err := c.Builtin("mips", sym, arg); err != nil {
				return 0, err
			}
			return c.PC + 1, nil
		}
		idx, err := img.CodeLabel(sym)
		if err != nil {
			return 0, err
		}
		c.Regs["$31"] = int64(c.PC + 1)
		return idx, nil
	case "jr":
		return int(getReg(c, ins.Args[0].Reg)), nil
	default:
		return 0, fmt.Errorf("mips: unimplemented opcode %q", ins.Op)
	}
	return next, nil
}

// arg reads the i-th word argument of a builtin call: $4 up.
func arg(c *machine.CPU, i int) int64 { return getReg(c, "$"+strconv.Itoa(4+i)) }
