package alpha

import (
	"fmt"
	"strconv"

	"srcg/internal/asm"
	"srcg/internal/machine"
)

// Execute implements target.Toolchain. $31 is hardwired to zero; jsr
// deposits the return address in its first operand and ret jumps through
// it. All longword arithmetic wraps to 32 bits.
func (t *Toolchain) Execute(img *asm.Image) (string, error) {
	c := img.Boot(registers, "$sp")
	return c.Run("alpha", len(img.Instrs), func(pc int) (int, error) {
		return step(c, img, img.Instrs[pc])
	})
}

func wrap32(v int64) int64 { return int64(int32(v)) }

func getReg(c *machine.CPU, r string) int64 {
	if r == "$31" {
		return 0
	}
	return c.Regs[r]
}

func setReg(c *machine.CPU, r string, v int64) {
	if r == "$31" {
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
	case "addl", "subl", "mull", "divl", "reml", "and", "bis", "xor", "ornot",
		"sll", "sra", "cmpeq", "cmplt", "cmple":
		a := getReg(c, ins.Args[0].Reg)
		b := operand(c, ins.Args[1])
		var r int64
		switch ins.Op {
		case "addl":
			r = a + b
		case "subl":
			r = a - b
		case "mull":
			r = a * b
		case "divl", "reml":
			if int32(b) == 0 {
				return 0, fmt.Errorf("alpha: division by zero")
			}
			if ins.Op == "divl" {
				r = int64(int32(a) / int32(b))
			} else {
				r = int64(int32(a) % int32(b))
			}
		case "and":
			r = a & b
		case "bis":
			r = a | b
		case "xor":
			r = a ^ b
		case "ornot":
			r = a | ^b
		case "sll":
			// The full 64-bit shifter: bits above 31 survive until the
			// next longword operation canonicalizes them.
			if ins.Args[2].Reg != "$31" {
				c.Regs[ins.Args[2].Reg] = a << (uint(b) & 63)
			}
			return next, nil
		case "sra":
			r = int64(int32(a) >> (uint(b) & 31))
		case "cmpeq":
			if a == b {
				r = 1
			}
		case "cmplt":
			if a < b {
				r = 1
			}
		case "cmple":
			if a <= b {
				r = 1
			}
		}
		setReg(c, ins.Args[2].Reg, r)
	case "ldl":
		addr, err := img.Addr(ins.Args[1], getReg(c, ins.Args[1].Reg))
		if err != nil {
			return 0, err
		}
		setReg(c, ins.Args[0].Reg, machine.SignExtend(c.Mem.Load(addr, 4), 32))
	case "stl":
		addr, err := img.Addr(ins.Args[1], getReg(c, ins.Args[1].Reg))
		if err != nil {
			return 0, err
		}
		c.Mem.Store(addr, 4, machine.Truncate(getReg(c, ins.Args[0].Reg), 32))
	case "lda":
		addr, err := img.Addr(ins.Args[1], getReg(c, ins.Args[1].Reg))
		if err != nil {
			return 0, err
		}
		setReg(c, ins.Args[0].Reg, int64(addr))
	case "ldil":
		setReg(c, ins.Args[0].Reg, ins.Args[1].Imm)
	case "beq", "bne":
		v := getReg(c, ins.Args[0].Reg)
		if (ins.Op == "beq") == (v == 0) {
			return img.CodeLabel(ins.Args[1].Sym)
		}
	case "br":
		return img.CodeLabel(ins.Args[0].Sym)
	case "jsr":
		sym := ins.Args[1].Sym
		setReg(c, ins.Args[0].Reg, int64(c.PC+1))
		if img.Builtin(sym) {
			if err := c.Builtin("alpha", sym, arg); err != nil {
				return 0, err
			}
			return c.PC + 1, nil
		}
		return img.CodeLabel(sym)
	case "ret":
		return int(getReg(c, ins.Args[0].Reg)), nil
	default:
		return 0, fmt.Errorf("alpha: unimplemented opcode %q", ins.Op)
	}
	return next, nil
}

// arg reads the i-th word argument of a builtin call: $16 up.
func arg(c *machine.CPU, i int) int64 { return getReg(c, "$"+strconv.Itoa(16+i)) }
