package sparc

import (
	"fmt"
	"strconv"

	"srcg/internal/asm"
	"srcg/internal/machine"
)

// Execute implements target.Toolchain. SPARC calls are delayed: the
// instruction after a call runs before control transfers, and %o7 receives
// the address past the delay slot. %g0 is hardwired to zero.
func (t *Toolchain) Execute(img *asm.Image) (string, error) {
	c := img.Boot(registers, "%sp")
	return c.Run("sparc", len(img.Instrs), func(pc int) (int, error) {
		return step(c, img, pc)
	})
}

func wrap32(v int64) int64 { return int64(int32(v)) }

func getReg(c *machine.CPU, r string) int64 {
	if r == "%g0" {
		return 0
	}
	return c.Regs[r]
}

func setReg(c *machine.CPU, r string, v int64) {
	if r == "%g0" {
		return
	}
	c.Regs[r] = wrap32(v)
}

// operand reads a register-or-immediate source.
func operand(c *machine.CPU, a asm.Arg) int64 {
	if a.Kind == asm.Imm {
		return a.Imm
	}
	return getReg(c, a.Reg)
}

// step executes the instruction at pc and returns the next pc.
func step(c *machine.CPU, img *asm.Image, pc int) (int, error) {
	ins := img.Instrs[pc]
	next := pc + 1
	switch ins.Op {
	case "add", "sub", "and", "or", "xor", "xnor", "sll", "sra":
		a := getReg(c, ins.Args[0].Reg)
		b := operand(c, ins.Args[1])
		var r int64
		switch ins.Op {
		case "add":
			r = a + b
		case "sub":
			r = a - b
		case "and":
			r = a & b
		case "or":
			r = a | b
		case "xor":
			r = a ^ b
		case "xnor":
			r = ^(a ^ b)
		case "sll":
			r = a << (uint(b) & 31)
		case "sra":
			r = int64(int32(a) >> (uint(b) & 31))
		}
		setReg(c, ins.Args[2].Reg, r)
	case "ld":
		addr := uint64(getReg(c, ins.Args[0].Reg) + ins.Args[0].Imm)
		setReg(c, ins.Args[1].Reg, machine.SignExtend(c.Mem.Load(addr, 4), 32))
	case "st":
		addr := uint64(getReg(c, ins.Args[1].Reg) + ins.Args[1].Imm)
		c.Mem.Store(addr, 4, machine.Truncate(getReg(c, ins.Args[0].Reg), 32))
	case "set":
		v := ins.Args[0].Imm
		if ins.Args[0].Kind == asm.Sym {
			addr, ok := img.Resolve(ins.Args[0].Sym)
			if !ok {
				return 0, fmt.Errorf("sparc: undefined symbol %q", ins.Args[0].Sym)
			}
			v = int64(addr)
		}
		setReg(c, ins.Args[1].Reg, v)
	case "cmp":
		c.CCValid = true
		c.CCa = getReg(c, ins.Args[0].Reg)
		c.CCb = operand(c, ins.Args[1])
	case "be", "bne", "bl", "ble", "bg", "bge":
		if !c.CCValid {
			return 0, fmt.Errorf("sparc: conditional branch with no condition codes set")
		}
		taken := false
		switch ins.Op {
		case "be":
			taken = c.CCa == c.CCb
		case "bne":
			taken = c.CCa != c.CCb
		case "bl":
			taken = c.CCa < c.CCb
		case "ble":
			taken = c.CCa <= c.CCb
		case "bg":
			taken = c.CCa > c.CCb
		case "bge":
			taken = c.CCa >= c.CCb
		}
		if taken {
			return img.CodeLabel(ins.Args[0].Sym)
		}
	case "b":
		return img.CodeLabel(ins.Args[0].Sym)
	case "nop":
	case "retl":
		next = int(c.Regs["%o7"])
	case "call":
		if pc+1 >= len(img.Instrs) {
			return 0, fmt.Errorf("sparc: call at %d has no delay slot", pc)
		}
		dnext, err := step(c, img, pc+1) // delay instruction runs first
		if err != nil {
			return 0, err
		}
		ret := pc + 2
		if dnext != pc+2 {
			ret = dnext // the delay instruction branched
		}
		sym := ins.Args[0].Sym
		if img.Builtin(sym) {
			if err := builtin(c, sym); err != nil {
				return 0, err
			}
			return ret, nil
		}
		idx, err := img.CodeLabel(sym)
		if err != nil {
			return 0, err
		}
		c.Regs["%o7"] = int64(ret)
		return idx, nil
	default:
		return 0, fmt.Errorf("sparc: unimplemented opcode %q", ins.Op)
	}
	return next, nil
}

// builtin services the .mul/.div/.rem millicode, and printf and exit
// through the machine: all take arguments in %o0, %o1..., results in
// %o0.
func builtin(c *machine.CPU, sym string) error {
	switch sym {
	case ".mul", ".div", ".rem":
		a, b := int32(c.Regs["%o0"]), int32(c.Regs["%o1"])
		if sym != ".mul" && b == 0 {
			return fmt.Errorf("sparc: division by zero in %s", sym)
		}
		var r int64
		switch sym {
		case ".mul":
			r = int64(a) * int64(b)
		case ".div":
			r = int64(a / b)
		case ".rem":
			r = int64(a % b)
		}
		c.Regs["%o0"] = wrap32(r)
		return nil
	}
	return c.Builtin("sparc", sym, arg)
}

// arg reads the i-th word argument of a builtin call: %o0 up.
func arg(c *machine.CPU, i int) int64 { return getReg(c, "%o"+strconv.Itoa(i)) }
