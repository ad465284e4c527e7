package mips

import (
	"fmt"

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

// ea computes the address of a memory operand: base+disp or absolute sym.
func ea(c *machine.CPU, img *asm.Image, a asm.Arg) (uint64, error) {
	if a.Reg != "" {
		return uint64(getReg(c, a.Reg) + a.Imm), nil
	}
	addr, ok := img.Resolve(a.Sym)
	if !ok {
		return 0, fmt.Errorf("mips: undefined data symbol %q", a.Sym)
	}
	return addr, nil
}

func codeLabel(img *asm.Image, sym string) (int, error) {
	idx, ok := img.Labels[sym]
	if !ok {
		return 0, fmt.Errorf("mips: undefined code label %q", sym)
	}
	return idx, nil
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
		addr, err := ea(c, img, ins.Args[1])
		if err != nil {
			return 0, err
		}
		setReg(c, ins.Args[0].Reg, machine.SignExtend(c.Mem.Load(addr, 4), 32))
	case "sw":
		addr, err := ea(c, img, ins.Args[1])
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
			return codeLabel(img, ins.Args[2].Sym)
		}
	case "j":
		return codeLabel(img, ins.Args[0].Sym)
	case "jal":
		sym := ins.Args[0].Sym
		if _, ok := img.Labels[sym]; !ok && asm.Builtins[sym] {
			c.Regs["$31"] = int64(c.PC + 1)
			if err := builtin(c, sym); err != nil {
				return 0, err
			}
			return c.PC + 1, nil
		}
		idx, err := codeLabel(img, sym)
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

// builtin services printf and exit with arguments in $4..$7.
func builtin(c *machine.CPU, sym string) error {
	switch sym {
	case "printf":
		format, err := c.Mem.LoadCString(uint64(c.Regs["$4"]))
		if err != nil {
			return err
		}
		var args []int64
		for i := 0; i < directives(format); i++ {
			args = append(args, getReg(c, fmt.Sprintf("$%d", 5+i)))
		}
		return c.Printf(format, args)
	case "exit":
		c.Exit = int(int32(c.Regs["$4"]))
		c.Halted = true
		return nil
	}
	return fmt.Errorf("mips: unsupported builtin %q", sym)
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
