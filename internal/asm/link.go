package asm

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"srcg/internal/machine"
)

// Image is a linked executable: a flat instruction stream plus an initial
// data segment. It is what the simulated `ld` produces and the simulated
// machine executes.
type Image struct {
	Arch     string
	WordSize int // bytes per integer word in static data
	Instrs   []Instr
	Labels   map[string]int    // code label -> instruction index
	Symbols  map[string]uint64 // data symbol -> address
	Data     map[uint64]byte   // initial data segment contents
	DataEnd  uint64            // first address past the static data segment
	Entry    int               // instruction index of the entry point
}

// unitSyms is a unit's symbol table as Link reads it. A unit is read-only
// once built, so ParseUnit computes this once and every link of the unit,
// on any pool worker, shares it.
type unitSyms struct {
	// defined maps every name the unit defines (code labels, aliases,
	// strings, .comm symbols) to whether the linker renames it: true
	// for a unit-local name, false for an exported one.
	defined map[string]bool
	aliases []string // Aliases keys, sorted
	strs    []string // Strings keys, sorted
	labels  int      // labelled instructions plus aliases
	data    int      // string bytes, NULs included
	// rewrites lists, in instruction order, the instructions whose Args
	// name a symbol the unit defines; every other instruction's Args
	// pass into the image as they are.
	rewrites []rewrite
}

// rewrite is one instruction whose Args the linker rewrites. When none of
// the names it references is unit-local, the rewrite does not depend on
// where the unit sits in the link, and args holds it, made once and
// shared by every image; otherwise args is nil and each link makes its
// own.
type rewrite struct {
	instr int
	args  []Arg
}

func newUnitSyms(u *Unit) *unitSyms {
	s := &unitSyms{}
	for _, ins := range u.Instrs {
		if ins.Label != "" {
			s.labels++
		}
	}
	s.defined = make(map[string]bool, s.labels+len(u.Aliases)+len(u.Strings)+len(u.Comm))
	def := func(name string) { s.defined[name] = !slices.Contains(u.Globals, name) }
	for _, ins := range u.Instrs {
		if ins.Label != "" {
			def(ins.Label)
		}
	}
	s.aliases = make([]string, 0, len(u.Aliases))
	for a := range u.Aliases {
		s.aliases = append(s.aliases, a)
	}
	sort.Strings(s.aliases)
	for _, a := range s.aliases {
		def(a)
	}
	s.labels += len(s.aliases)
	s.strs = make([]string, 0, len(u.Strings))
	for l := range u.Strings {
		s.strs = append(s.strs, l)
	}
	sort.Strings(s.strs)
	for _, l := range s.strs {
		def(l)
		s.data += len(u.Strings[l]) + 1
	}
	for _, c := range u.Comm {
		def(c)
	}
	for i, ins := range u.Instrs {
		refs, local := false, false
		for _, a := range ins.Args {
			if l, ok := s.defined[a.Sym]; ok && a.Sym != "" {
				refs, local = true, local || l
			}
		}
		if refs {
			r := rewrite{instr: i}
			if !local {
				r.args = s.relink(ins.Args, "")
			}
			s.rewrites = append(s.rewrites, r)
		}
	}
	return s
}

// relink returns a copy of args in which every reference to a name the
// unit defines is renamed, if unit-local, to prefix+name, and loses its
// raw text, which no longer matches.
func (s *unitSyms) relink(args []Arg, prefix string) []Arg {
	out := slices.Clone(args)
	for i, a := range out {
		if local, ok := s.defined[a.Sym]; ok && a.Sym != "" {
			if local {
				out[i].Sym = prefix + a.Sym
			}
			out[i].Raw = ""
		}
	}
	return out
}

// symbols returns u's symbol table: ParseUnit's, or for a unit built by
// hand a fresh one.
func (u *Unit) symbols() *unitSyms {
	if u.syms != nil {
		return u.syms
	}
	return newUnitSyms(u)
}

// Link combines assembled units into an executable image. Non-exported
// labels are renamed per unit (real linkers keep them unit-local); exported
// labels and data symbols share one namespace. The entry point is `main`.
//
// The image shares each instruction's Args with its unit, except where an
// argument names a symbol the unit defines: the image rewrites those in a
// copy. Units and images are read-only once built.
func Link(arch string, wordSize int, units []*Unit) (*Image, error) {
	syms := make([]*unitSyms, len(units))
	n, labels, symbols, data := 0, 0, 0, 0
	for ui, u := range units {
		s := u.symbols()
		syms[ui] = s
		n += len(u.Instrs)
		labels += s.labels
		symbols += len(u.Comm) + len(s.strs)
		data += s.data
	}
	img := &Image{
		Arch:     arch,
		WordSize: wordSize,
		Instrs:   make([]Instr, 0, n),
		Labels:   make(map[string]int, labels),
		Symbols:  make(map[string]uint64, symbols),
		Data:     make(map[uint64]byte, data),
	}
	addr := uint64(machine.DataBase)

	for ui, u := range units {
		s := syms[ui]
		prefix := "u" + strconv.Itoa(ui) + "$"
		rename := func(name string) string {
			if s.defined[name] {
				return prefix + name
			}
			return name
		}

		rewrites := s.rewrites
		for i, ins := range u.Instrs {
			if ins.Label != "" {
				ins.Label = rename(ins.Label)
				if _, dup := img.Labels[ins.Label]; dup {
					return nil, fmt.Errorf("%s-ld: duplicate label %q", arch, ins.Label)
				}
				img.Labels[ins.Label] = len(img.Instrs)
			}
			// References to names this unit defines, data names
			// included, are renamed exactly like the labels.
			if len(rewrites) > 0 && rewrites[0].instr == i {
				if rewrites[0].args != nil {
					ins.Args = rewrites[0].args
				} else {
					ins.Args = s.relink(ins.Args, prefix)
				}
				rewrites = rewrites[1:]
			}
			img.Instrs = append(img.Instrs, ins)
		}
		// Alias labels share the canonical label's instruction index; a
		// trailing label (canonical target endLabel) points one past the
		// unit's last instruction.
		for _, a := range s.aliases {
			canon := u.Aliases[a]
			name := rename(a)
			if _, dup := img.Labels[name]; dup {
				return nil, fmt.Errorf("%s-ld: duplicate label %q", arch, name)
			}
			if canon == endLabel {
				img.Labels[name] = len(img.Instrs)
				continue
			}
			// A canonical label the unit does not define is renamed
			// unless exported, and then dangles.
			if !slices.Contains(u.Globals, canon) {
				canon = prefix + canon
			}
			idx, ok := img.Labels[canon]
			if !ok {
				return nil, fmt.Errorf("%s-ld: dangling label alias %q -> %q", arch, a, u.Aliases[a])
			}
			img.Labels[name] = idx
		}

		// Data: .comm symbols then strings, in deterministic order.
		for _, c := range u.Comm {
			name := rename(c)
			if _, dup := img.Symbols[name]; dup {
				// Multiple .comm for the same exported symbol merge, as
				// with real common symbols.
				if !s.defined[c] {
					continue
				}
				return nil, fmt.Errorf("%s-ld: duplicate data symbol %q", arch, name)
			}
			img.Symbols[name] = addr
			addr += uint64(wordSize)
		}
		for _, l := range s.strs {
			name := rename(l)
			if _, dup := img.Symbols[name]; dup {
				return nil, fmt.Errorf("%s-ld: duplicate data symbol %q", arch, name)
			}
			img.Symbols[name] = addr
			for _, b := range []byte(u.Strings[l]) {
				img.Data[addr] = b
				addr++
			}
			img.Data[addr] = 0
			addr++
			// Keep words aligned.
			for addr%uint64(wordSize) != 0 {
				addr++
			}
		}
	}

	img.DataEnd = addr
	entry, ok := img.Labels["main"]
	if !ok {
		return nil, fmt.Errorf("%s-ld: undefined entry point main", arch)
	}
	img.Entry = entry
	return img, nil
}

// Builtins are runtime services every simulated OS provides; calls to these
// names resolve even though no unit defines them.
var Builtins = map[string]bool{
	"printf": true,
	"exit":   true,
	".mul":   true, // SPARC software multiply
	".div":   true, // SPARC software divide
	".rem":   true, // SPARC software remainder
}

// CheckUndefined verifies that every symbolic reference resolves to a code
// label, data symbol, or runtime builtin.
func (img *Image) CheckUndefined() error {
	for _, ins := range img.Instrs {
		for _, a := range ins.Args {
			if a.Sym == "" {
				continue
			}
			if _, ok := img.Labels[a.Sym]; ok {
				continue
			}
			if _, ok := img.Symbols[a.Sym]; ok {
				continue
			}
			if Builtins[a.Sym] {
				continue
			}
			return fmt.Errorf("%s-ld: undefined symbol %q (line %d)", img.Arch, a.Sym, ins.Line)
		}
	}
	return nil
}

// Builtin reports whether a call to sym reaches a runtime builtin: sym
// names one and no code label of the image shadows it.
func (img *Image) Builtin(sym string) bool {
	_, ok := img.Labels[sym]
	return !ok && Builtins[sym]
}

// CodeLabel returns the instruction index of a code label.
func (img *Image) CodeLabel(sym string) (int, error) {
	idx, ok := img.Labels[sym]
	if !ok {
		return 0, fmt.Errorf("%s: undefined code label %q", img.Arch, sym)
	}
	return idx, nil
}

// Addr computes the address of memory operand a: base plus displacement
// when a names a base register, whose value the caller reads and passes
// as base, else the address of a's data symbol.
func (img *Image) Addr(a Arg, base int64) (uint64, error) {
	if a.Reg != "" {
		return uint64(base + a.Imm), nil
	}
	addr, ok := img.Resolve(a.Sym)
	if !ok {
		return 0, fmt.Errorf("%s: undefined data symbol %q", img.Arch, a.Sym)
	}
	return addr, nil
}

// Resolve returns the data address for a symbol, consulting data symbols
// first (labels are code addresses, meaningless as data).
func (img *Image) Resolve(sym string) (uint64, bool) {
	a, ok := img.Symbols[sym]
	return a, ok
}

// Boot loads the image into a fresh CPU, as every simulated OS's loader
// does: memory accesses are bounded to the static data segment and the
// stack, the data segment holds its initial bytes, each register named
// in regs reads zero, sp holds StackTop and the PC is at the entry point.
func (img *Image) Boot(regs map[string]bool, sp string) *machine.CPU {
	c := machine.NewCPU(len(regs))
	c.Mem.AddBound(machine.DataBase, img.DataEnd)
	c.Mem.AddBound(machine.StackTop-machine.StackSize, machine.StackTop)
	// Link lays the segment out from DataBase to DataEnd; walking the
	// addresses rather than the map keeps the stores in one order.
	for a := uint64(machine.DataBase); a < img.DataEnd; a++ {
		if b, ok := img.Data[a]; ok {
			c.Mem.Store(a, 1, uint64(b))
		}
	}
	for r := range regs {
		c.Regs[r] = 0
	}
	c.Regs[sp] = machine.StackTop
	c.PC = img.Entry
	return c
}
