package discovery

import (
	"testing"
	"testing/quick"
)

func TestReplaceToken(t *testing.T) {
	cases := []struct{ text, tok, repl, want string }{
		{"movl %eax, %eax", "%eax", "%ebx", "movl %ebx, %ebx"},
		{"add $10, $100", "$10", "$9", "add $9, $100"}, // $100 must not match
		{"ld [%fp-8], %l0", "%l0", "%l1", "ld [%fp-8], %l1"},
		{"mov %l0, %l01", "%l0", "%g1", "mov %g1, %l01"},
		{"sub r1, r11, r1", "r1", "r2", "sub r2, r11, r2"},
	}
	for _, c := range cases {
		if got := ReplaceToken(c.text, c.tok, c.repl); got != c.want {
			t.Errorf("ReplaceToken(%q,%q,%q) = %q, want %q", c.text, c.tok, c.repl, got, c.want)
		}
	}
}

func TestHasToken(t *testing.T) {
	if !HasToken("addl $5, %eax", "%eax") {
		t.Error("token eax should be found")
	}
	if HasToken("addl $5, %eaxx", "%eax") {
		t.Error("token eaxx must not match eax")
	}
	if HasToken("movl $100, m", "$10") {
		t.Error("$10 inside $100")
	}
}

func TestOperandRename(t *testing.T) {
	op := Operand{Text: "-8(%ebp)", Kind: KMem, Regs: []string{"%ebp"}}
	if !op.RenameReg("%ebp", "%esi") {
		t.Fatal("rename failed")
	}
	if op.Text != "-8(%esi)" || op.Regs[0] != "%esi" {
		t.Errorf("renamed = %+v", op)
	}
	if op.RenameReg("%ebp", "%eax") {
		t.Error("stale rename should report false")
	}
}

func TestCloneInstrsIsDeep(t *testing.T) {
	in := []Instr{{
		Op:     "add",
		Labels: []string{"L1"},
		Args:   []Operand{{Text: "%o0", Kind: KReg, Regs: []string{"%o0"}}},
	}}
	c := CloneInstrs(in)
	c[0].Args[0].RenameReg("%o0", "%o1")
	c[0].Labels[0] = "X"
	if in[0].Args[0].Text != "%o0" || in[0].Args[0].Regs[0] != "%o0" || in[0].Labels[0] != "L1" {
		t.Errorf("clone aliases original: %+v", in[0])
	}
}

func TestSignature(t *testing.T) {
	ins := Instr{Op: "call", Args: []Operand{{Kind: KSym, Sym: ".mul"}}}
	if got := ins.Signature(); got != "call:sym=.mul" {
		t.Errorf("Signature = %q", got)
	}
	ins2 := Instr{Op: "lw", Args: []Operand{
		{Kind: KReg}, {Kind: KMem},
	}}
	if got := ins2.Signature(); got != "lw:reg,mem" {
		t.Errorf("Signature = %q", got)
	}
}

func TestRegisters(t *testing.T) {
	region := []Instr{
		{Op: "ld", Args: []Operand{{Kind: KMem, Regs: []string{"%fp"}}, {Kind: KReg, Regs: []string{"%l0"}}}},
		{Op: "st", Args: []Operand{{Kind: KReg, Regs: []string{"%l0"}}, {Kind: KMem, Regs: []string{"%fp"}}}},
	}
	got := Registers(region)
	if len(got) != 2 || got[0] != "%fp" || got[1] != "%l0" {
		t.Errorf("Registers = %v", got)
	}
}

func TestRebuild(t *testing.T) {
	s := &Sample{
		PreLines:  []string{"head:", "\tnop"},
		PostLines: []string{"End:", "\tret"},
	}
	region := []Instr{{Op: "add", Args: []Operand{{Text: "%o0"}, {Text: "%o1"}}, Labels: []string{"L"}}}
	got := s.Rebuild(region)
	want := "head:\n\tnop\nL:\n\tadd %o0, %o1\nEnd:\n\tret\n"
	if got != want {
		t.Errorf("Rebuild = %q, want %q", got, want)
	}
}

func TestReplaceTokenNeverChangesLength(t *testing.T) {
	// Replacement with an equally long token preserves text length.
	f := func(text string) bool {
		got := ReplaceToken(text, "ab", "xy")
		return len(got) == len(text)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsString(t *testing.T) {
	st := Stats{Samples: 11, Compiles: 2, Executions: 3, Mutations: 5, CandidatesTried: 4}
	want := "samples=11 compiles=2 assemblies=0 links=0 executions=3 mutations=5 candidates=4"
	if got := st.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
