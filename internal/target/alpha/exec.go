package alpha

import (
	"fmt"

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

// ea computes the address of a memory operand: base+disp or absolute sym.
func ea(c *machine.CPU, img *asm.Image, a asm.Arg) (uint64, error) {
	if a.Reg != "" {
		return uint64(getReg(c, a.Reg) + a.Imm), nil
	}
	addr, ok := img.Resolve(a.Sym)
	if !ok {
		return 0, fmt.Errorf("alpha: undefined data symbol %q", a.Sym)
	}
	return addr, nil
}

func codeLabel(img *asm.Image, sym string) (int, error) {
	idx, ok := img.Labels[sym]
	if !ok {
		return 0, fmt.Errorf("alpha: undefined code label %q", sym)
	}
	return idx, nil
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
		addr, err := ea(c, img, ins.Args[1])
		if err != nil {
			return 0, err
		}
		setReg(c, ins.Args[0].Reg, machine.SignExtend(c.Mem.Load(addr, 4), 32))
	case "stl":
		addr, err := ea(c, img, ins.Args[1])
		if err != nil {
			return 0, err
		}
		c.Mem.Store(addr, 4, machine.Truncate(getReg(c, ins.Args[0].Reg), 32))
	case "lda":
		addr, err := ea(c, img, ins.Args[1])
		if err != nil {
			return 0, err
		}
		setReg(c, ins.Args[0].Reg, int64(addr))
	case "ldil":
		setReg(c, ins.Args[0].Reg, ins.Args[1].Imm)
	case "beq", "bne":
		v := getReg(c, ins.Args[0].Reg)
		if (ins.Op == "beq") == (v == 0) {
			return codeLabel(img, ins.Args[1].Sym)
		}
	case "br":
		return codeLabel(img, ins.Args[0].Sym)
	case "jsr":
		sym := ins.Args[1].Sym
		setReg(c, ins.Args[0].Reg, int64(c.PC+1))
		if _, ok := img.Labels[sym]; !ok && asm.Builtins[sym] {
			if err := builtin(c, sym); err != nil {
				return 0, err
			}
			return c.PC + 1, nil
		}
		return codeLabel(img, sym)
	case "ret":
		return int(getReg(c, ins.Args[0].Reg)), nil
	default:
		return 0, fmt.Errorf("alpha: unimplemented opcode %q", ins.Op)
	}
	return next, nil
}

// builtin services printf and exit with arguments in $16..$18.
func builtin(c *machine.CPU, sym string) error {
	switch sym {
	case "printf":
		format, err := c.Mem.LoadCString(uint64(c.Regs["$16"]))
		if err != nil {
			return err
		}
		var args []int64
		for i := 0; i < directives(format); i++ {
			args = append(args, getReg(c, fmt.Sprintf("$%d", 17+i)))
		}
		return c.Printf(format, args)
	case "exit":
		c.Exit = int(int32(c.Regs["$16"]))
		c.Halted = true
		return nil
	}
	return fmt.Errorf("alpha: unsupported builtin %q", sym)
}

// directives counts the argument-consuming conversions in a printf format.
func directives(format string) int {
	n := 0
	for i := 0; i+1 < len(format); i++ {
		if format[i] == '%' {
			if format[i+1] == 'i' || format[i+1] == 'd' {
				n++
			}
			i++
		}
	}
	return n
}
