// Package machine provides the execution substrate shared by every
// simulated target: byte-addressed memory, a register file, and the CPU
// state that the per-architecture executors step. It plays the role of the
// physical hardware that the paper's discovery unit reaches over rsh.
package machine

import (
	"fmt"
	"strings"
)

// Memory is a sparse byte-addressed memory with optional access bounds,
// backed by fixed-size pages allocated on first store. Out-of-bounds
// accesses latch a fault that the executor surfaces after the offending
// step — like a real machine's segmentation violation, this is what makes
// clobbered frame pointers *observable* to mutation analysis.
type Memory struct {
	pages  map[uint64]*page // page number -> contents
	last   *page            // the page most recently accessed, if any
	lastN  uint64           // its page number
	bounds [][2]uint64      // inclusive start, exclusive end; empty = unbounded
	fault  error
}

const pageBits = 8

type page [1 << pageBits]byte

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{pages: map[uint64]*page{}} }

// AddBound allows accesses in [start, end).
func (m *Memory) AddBound(start, end uint64) {
	m.bounds = append(m.bounds, [2]uint64{start, end})
}

// Fault returns the first out-of-bounds access error, if any.
func (m *Memory) Fault() error { return m.fault }

// check latches a fault unless [addr, addr+size) lies inside one bound.
// An access whose end wraps past the top of the address space lies
// inside none.
func (m *Memory) check(addr uint64, size int) {
	if m.fault != nil || len(m.bounds) == 0 {
		return
	}
	if end := addr + uint64(size); end >= addr {
		for _, b := range m.bounds {
			if addr >= b[0] && end <= b[1] {
				return
			}
		}
	}
	m.fault = fmt.Errorf("machine: memory access fault at %#x", addr)
}

// page returns the page holding addr and addr's offset in it. A page
// never stored to is nil unless alloc, which allocates it.
func (m *Memory) page(addr uint64, alloc bool) (*page, uint64) {
	n, off := addr>>pageBits, addr&(1<<pageBits-1)
	if m.last != nil && m.lastN == n {
		return m.last, off
	}
	p := m.pages[n]
	if p == nil {
		if !alloc {
			return nil, off
		}
		p = new(page)
		m.pages[n] = p
	}
	m.last, m.lastN = p, n
	return p, off
}

// Load reads a little-endian value of size bytes at addr.
func (m *Memory) Load(addr uint64, size int) uint64 {
	m.check(addr, size)
	var v uint64
	if p, off := m.page(addr, false); off+uint64(size) <= 1<<pageBits {
		if p != nil {
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(p[off+uint64(i)])
			}
		}
		return v
	}
	for i := 0; i < size; i++ {
		v |= uint64(m.byteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// byteAt reads the byte at addr without a bounds check.
func (m *Memory) byteAt(addr uint64) byte {
	if p, off := m.page(addr, false); p != nil {
		return p[off]
	}
	return 0
}

// Store writes a little-endian value of size bytes at addr.
func (m *Memory) Store(addr uint64, size int, v uint64) {
	m.check(addr, size)
	if p, off := m.page(addr, true); off+uint64(size) <= 1<<pageBits {
		for i := 0; i < size; i++ {
			p[off+uint64(i)] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < size; i++ {
		p, off := m.page(addr+uint64(i), true)
		p[off] = byte(v >> (8 * i))
	}
}

// LoadCString reads a NUL-terminated string at addr (bounded at 64KiB to
// catch runaway pointers in buggy generated code).
func (m *Memory) LoadCString(addr uint64) (string, error) {
	var sb strings.Builder
	for i := 0; i < 1<<16; i++ {
		b := m.byteAt(addr + uint64(i))
		if b == 0 {
			return sb.String(), nil
		}
		sb.WriteByte(b)
	}
	return "", fmt.Errorf("machine: unterminated string at %#x", addr)
}

// SignExtend interprets the low `bits` bits of v as a signed integer.
func SignExtend(v uint64, bits int) int64 {
	shift := 64 - bits
	return int64(v<<shift) >> shift
}

// Truncate keeps the low `bits` bits of v.
func Truncate(v int64, bits int) uint64 {
	if bits >= 64 {
		return uint64(v)
	}
	return uint64(v) & (1<<bits - 1)
}

// Layout constants shared by all simulated targets.
const (
	DataBase  = 0x10000  // static data segment start
	StackTop  = 0x800000 // initial stack pointer
	StackSize = 0x10000  // reserved stack region (for bounds checks)
)

// CPU is the mutable machine state stepped by an architecture executor.
type CPU struct {
	Regs   map[string]int64
	Mem    *Memory
	PC     int // index into the linked instruction stream
	Halted bool
	Exit   int

	// Condition state for architectures with a compare/branch split
	// (SPARC cmp+be, VAX tstl+jeql, x86 cmpl+je).
	CCValid bool
	CCa     int64
	CCb     int64

	// Hidden registers (e.g. MIPS hi/lo) live here, invisible to the
	// assembly-level register namespace.
	Hidden map[string]int64

	// Call stack of return PCs for architectures that keep return
	// addresses outside the general register file (VAX-style calls).
	RetStack []int

	Out      strings.Builder
	Steps    int64
	MaxSteps int64
}

// NewCPU returns a CPU with an empty register file, sized for regs
// registers, and the default step budget.
func NewCPU(regs int) *CPU {
	return &CPU{
		Regs:     make(map[string]int64, regs),
		Mem:      NewMemory(),
		Hidden:   map[string]int64{},
		MaxSteps: 2_000_000,
	}
}

// Tick consumes one step of the budget; it returns an error when the budget
// is exhausted (runaway mutated samples must terminate).
func (c *CPU) Tick() error {
	c.Steps++
	if c.Steps > c.MaxSteps {
		return fmt.Errorf("machine: step budget exceeded (%d)", c.MaxSteps)
	}
	return nil
}

// Run steps the CPU from its PC until it halts and returns what it
// printed, with the first error. Each step consumes one tick of the
// budget and must find the PC inside the n instructions of the code (an
// escape is reported under the arch name); step executes the instruction
// at pc and returns the next PC, and a memory fault latched during the
// step ends the run.
func (c *CPU) Run(arch string, n int, step func(pc int) (int, error)) (string, error) {
	for !c.Halted {
		if err := c.Tick(); err != nil {
			return c.Out.String(), err
		}
		if c.PC < 0 || c.PC >= n {
			return c.Out.String(), fmt.Errorf("%s: PC %d outside code [0,%d)", arch, c.PC, n)
		}
		next, err := step(c.PC)
		if err != nil {
			return c.Out.String(), err
		}
		if err := c.Mem.Fault(); err != nil {
			return c.Out.String(), err
		}
		c.PC = next
	}
	return c.Out.String(), nil
}

// Builtin services a call to one of the runtime routines every simulated
// OS provides, printf and exit. arg(c, i) reads the call's i-th word
// argument wherever the target's calling convention keeps it; arch names
// the target in the error for any other routine.
func (c *CPU) Builtin(arch, sym string, arg func(c *CPU, i int) int64) error {
	switch sym {
	case "printf":
		format, err := c.Mem.LoadCString(uint64(arg(c, 0)))
		if err != nil {
			return err
		}
		var args []int64
		for i := 0; i < directives(format); i++ {
			args = append(args, arg(c, 1+i))
		}
		return c.Printf(format, args)
	case "exit":
		c.Exit = int(int32(arg(c, 0)))
		c.Halted = true
		return nil
	}
	return fmt.Errorf("%s: unsupported builtin %q", arch, sym)
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

// Printf implements the runtime printf used by samples: only the directives
// the Generator emits (%i, %d, %%) are supported.
func (c *CPU) Printf(format string, args []int64) error {
	argi := 0
	for i := 0; i < len(format); i++ {
		ch := format[i]
		if ch != '%' {
			c.Out.WriteByte(ch)
			continue
		}
		i++
		if i >= len(format) {
			return fmt.Errorf("machine: trailing %% in printf format")
		}
		switch format[i] {
		case 'i', 'd':
			if argi >= len(args) {
				return fmt.Errorf("machine: printf missing argument %d", argi)
			}
			fmt.Fprintf(&c.Out, "%d", args[argi])
			argi++
		case '%':
			c.Out.WriteByte('%')
		default:
			return fmt.Errorf("machine: unsupported printf directive %%%c", format[i])
		}
	}
	return nil
}
