package asm

import "strings"

// Dialect is a simulated assembler: the surface syntax, the register
// file, and a per-opcode operand table that one shared decoder walks.
// Directive handling (.text/.globl/.comm/.asciz/...) is shared too, since
// all five simulated toolchains use the same Unix-style directives.
type Dialect struct {
	Arch   string
	Syntax Syntax
	// Registers is the register file a register operand names.
	Registers map[string]bool
	// Ops maps each opcode the assembler accepts to its operand shape;
	// every other opcode is rejected, as are operands its decoders or
	// checks refuse — the discovery unit probes syntax by feeding the
	// assembler garbage.
	Ops map[string]Shape
	// Reserved reports whether a label-shaped token belongs to register
	// syntax, so that it is neither a bare symbol nor a branch target.
	// Nil reserves nothing.
	Reserved func(string) bool
	// ValidLabel reports whether a token may be a label. Defaults to
	// DefaultValidLabel when nil.
	ValidLabel func(string) bool
}

// DefaultValidLabel accepts C-identifier-like labels plus '.' and '$'.
func DefaultValidLabel(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == '.' || c == '$' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ParseUnit assembles source text into a Unit using the dialect. Multiple
// labels may land on the same instruction (mutations that delete an
// instruction between two labels produce this); extras are recorded as
// aliases.
func (d *Dialect) ParseUnit(text string) (*Unit, error) {
	// At most one instruction per line.
	lines := strings.Count(text, "\n") + 1
	u := &Unit{Arch: d.Arch, Instrs: make([]Instr, 0, lines),
		Strings: map[string]string{}, Aliases: map[string]string{}}
	valid := d.ValidLabel
	if valid == nil {
		valid = DefaultValidLabel
	}
	var pending []string
	attach := func(ins Instr) Instr {
		if len(pending) > 0 {
			ins.Label = pending[0]
			for _, extra := range pending[1:] {
				u.Aliases[extra] = pending[0]
			}
			pending = nil
		}
		return ins
	}
	for num := 1; num <= lines; num++ {
		raw, rest, _ := strings.Cut(text, "\n")
		text = rest
		line, err := d.Syntax.SplitLine(num, raw)
		if err != nil {
			return nil, err
		}
		if line.Label != "" {
			if !valid(line.Label) {
				return nil, Errf(d.Arch, line.Num, "bad label %q", line.Label)
			}
		}
		if line.Op == "" {
			if line.Label != "" {
				pending = append(pending, line.Label)
			}
			continue
		}
		if line.IsDir {
			if err := d.directive(u, line); err != nil {
				return nil, err
			}
			continue
		}
		if line.Label != "" {
			pending = append(pending, line.Label)
		}
		ins, err := d.decode(line)
		if err != nil {
			return nil, err
		}
		u.Instrs = append(u.Instrs, attach(ins))
	}
	for _, l := range pending {
		// Trailing labels reference the end of the stream; record them as
		// aliases of a synthetic terminator so links still resolve.
		u.Aliases[l] = endLabel
	}
	u.syms = newUnitSyms(u)
	return u, nil
}

// endLabel marks "one past the last instruction" for trailing labels.
const endLabel = "$end"

func (d *Dialect) directive(u *Unit, line Line) error {
	switch line.Op {
	case ".text", ".data", ".align", ".word", ".ent", ".end", ".frame", ".set":
		return nil
	case ".globl", ".global":
		if len(line.Args) != 1 {
			return Errf(d.Arch, line.Num, "%s needs one symbol", line.Op)
		}
		u.Globals = append(u.Globals, line.Args[0])
		return nil
	case ".comm":
		if len(line.Args) < 1 {
			return Errf(d.Arch, line.Num, ".comm needs a symbol")
		}
		u.Comm = append(u.Comm, line.Args[0])
		u.Globals = append(u.Globals, line.Args[0])
		return nil
	case ".asciz", ".string", ".ascii":
		return DirString(u, d.Arch, line)
	default:
		return Errf(d.Arch, line.Num, "unknown directive %s", line.Op)
	}
}

// Link links units into an image for the dialect's architecture, with
// word-sized data, and checks that every symbolic reference resolves.
func (d *Dialect) Link(units []*Unit) (*Image, error) {
	img, err := Link(d.Arch, 4, units)
	if err != nil {
		return nil, err
	}
	if err := img.CheckUndefined(); err != nil {
		return nil, err
	}
	return img, nil
}
