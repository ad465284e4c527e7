package mutate

import (
	"slices"
	"testing"

	"srcg/internal/discovery"
)

func instr(op string, args ...string) discovery.Instr {
	ins := discovery.Instr{Op: op}
	for _, a := range args {
		ins.Args = append(ins.Args, discovery.Operand{Text: a})
	}
	return ins
}

func ops(region []discovery.Instr) []string {
	var out []string
	for _, i := range region {
		out = append(out, i.Op)
	}
	return out
}

func region3() []discovery.Instr {
	r := []discovery.Instr{instr("a"), instr("b"), instr("c")}
	r[1].Labels = []string{"L"}
	return r
}

func TestDelete(t *testing.T) {
	r := region3()
	out := Delete(r, 1)
	if !slices.Equal(ops(out), []string{"a", "c"}) {
		t.Errorf("ops = %v", ops(out))
	}
	// The deleted instruction's label moves to its successor.
	if len(out[1].Labels) != 1 || out[1].Labels[0] != "L" {
		t.Errorf("labels = %v", out[1].Labels)
	}
	// The original is untouched.
	if !slices.Equal(ops(r), []string{"a", "b", "c"}) {
		t.Error("Delete mutated its input")
	}
}

func TestInsert(t *testing.T) {
	r := region3()
	out := Insert(r, 0, instr("x"))
	if !slices.Equal(ops(out), []string{"x", "a", "b", "c"}) {
		t.Errorf("ops = %v", ops(out))
	}
	out = Insert(r, 3, instr("x"))
	if !slices.Equal(ops(out), []string{"a", "b", "c", "x"}) {
		t.Errorf("append: ops = %v", ops(out))
	}
}

func TestRenameAt(t *testing.T) {
	r := []discovery.Instr{
		{Op: "mov", Args: []discovery.Operand{
			{Text: "%eax", Kind: discovery.KReg, Regs: []string{"%eax"}},
			{Text: "-4(%eax)", Kind: discovery.KMem, Regs: []string{"%eax"}},
		}},
		{Op: "mov", Args: []discovery.Operand{
			{Text: "%eax", Kind: discovery.KReg, Regs: []string{"%eax"}},
		}},
	}
	out := RenameAt(r, []int{0}, "%eax", "%ebx")
	if out[0].Args[0].Text != "%ebx" || out[0].Args[1].Text != "-4(%ebx)" {
		t.Errorf("instr 0 = %v", out[0])
	}
	if out[1].Args[0].Text != "%eax" {
		t.Errorf("instr 1 should be untouched: %v", out[1])
	}
}
