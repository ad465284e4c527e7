package cc

import (
	"fmt"
	"slices"
	"strings"

	"srcg/internal/asm"
	"srcg/internal/ir"
)

// MaxScratch is the number of frame spill slots a function reserves for
// values that must survive a nested call.
const MaxScratch = 4

// Backend is the scaffold each simulated target's code generator embeds:
// the output buffer and its emitters, the function being compiled with
// its frame counts, a pool of expression registers, and frame spill
// slots. The generator itself chooses every mnemonic.
type Backend struct {
	Arch string
	// Pool is the expression-temporary allocation order.
	Pool []string
	// Frame renders the frame slot at a displacement from the frame
	// pointer; nil for a target that never spills to the frame.
	Frame func(disp int) string
	// MaxParams, when positive, is the most parameters a function may
	// take.
	MaxParams int

	Unit *ir.Unit
	Fn   *ir.Func
	// Params and Locals count Fn's parameters and other locals.
	Params, Locals int
	// Slots is how many frame slots below the frame pointer hold named
	// values; the spill slots lie beyond them. The generator sets it.
	Slots int

	buf     strings.Builder
	busy    map[string]bool
	scratch int
}

// Compile lowers mini-C source to assembly. genFunc emits each function;
// Compile then appends the data every target lays out alike: a .comm
// word per global and an .asciz per string.
func (b *Backend) Compile(src string, genFunc func(f *ir.Func) error) (string, error) {
	u, err := CompileUnit(src)
	if err != nil {
		return "", err
	}
	b.Unit = u
	for _, f := range u.Funcs {
		b.Fn, b.busy, b.scratch, b.Slots = f, map[string]bool{}, 0, 0
		b.Params, b.Locals = 0, 0
		for _, l := range f.Locals {
			if l.IsParam {
				b.Params++
			} else {
				b.Locals++
			}
		}
		if b.MaxParams > 0 && b.Params > b.MaxParams {
			return "", b.Errf("%s: more than %d parameters", f.Name, b.MaxParams)
		}
		if err := genFunc(f); err != nil {
			return "", err
		}
	}
	for _, gl := range u.Globals {
		b.Raw("\t.comm " + gl.Name + ", 4")
	}
	for _, s := range u.Strings {
		b.Raw(s.Label + ":\t.asciz \"" + asm.EscapeString(s.Value) + "\"")
	}
	return b.buf.String(), nil
}

// Raw emits one line as is.
func (b *Backend) Raw(s string) {
	b.buf.WriteString(s)
	b.buf.WriteByte('\n')
}

// Ins emits one instruction line.
func (b *Backend) Ins(f string, a ...any) {
	b.buf.WriteByte('\t')
	fmt.Fprintf(&b.buf, f, a...)
	b.buf.WriteByte('\n')
}

// Label emits a label definition.
func (b *Backend) Label(name string) { b.Raw(name + ":") }

// Errf reports a compile error under the target's compiler name.
func (b *Backend) Errf(f string, a ...any) error { return fmt.Errorf(b.Arch+"-cc: "+f, a...) }

// Alloc takes the first free pool register not in avoid.
func (b *Backend) Alloc(avoid ...string) (string, bool) {
	for _, r := range b.Pool {
		if !b.busy[r] && !slices.Contains(avoid, r) {
			b.busy[r] = true
			return r, true
		}
	}
	return "", false
}

// Release frees register r.
func (b *Backend) Release(r string) { delete(b.busy, r) }

// Claim marks register r busy.
func (b *Backend) Claim(r string) { b.busy[r] = true }

// Busy reports whether register r is taken.
func (b *Backend) Busy(r string) bool { return b.busy[r] }

// FreeCount counts the free pool registers.
func (b *Backend) FreeCount() int {
	n := 0
	for _, r := range b.Pool {
		if !b.busy[r] {
			n++
		}
	}
	return n
}

// ScratchPush reserves the next spill slot beyond the named slots.
func (b *Backend) ScratchPush() (string, error) {
	if b.scratch >= MaxScratch {
		return "", b.Errf("expression too deep: out of spill slots")
	}
	b.scratch++
	return b.Frame(-4 * (b.Slots + b.scratch)), nil
}

// ScratchPop frees the most recently reserved spill slot.
func (b *Backend) ScratchPop() { b.scratch-- }

// IsData reports whether name is a data symbol (a global or extern
// variable) rather than a function of the unit.
func (b *Backend) IsData(name string) bool {
	for _, f := range b.Unit.Funcs {
		if f.Name == name {
			return false
		}
	}
	return true
}

// EndsFlow reports whether a function body already ends in a return or a
// call to exit, making a trailing epilogue dead code.
func EndsFlow(body []*ir.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	last := body[len(body)-1]
	if last.Kind == ir.SRet {
		return true
	}
	return last.Kind == ir.SExpr && last.Val != nil && last.Val.Op == ir.Call && last.Val.Name == "exit"
}
