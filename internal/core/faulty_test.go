package core

import (
	"strings"
	"testing"

	"srcg/internal/asm"
	"srcg/internal/target"
	"srcg/internal/target/x86"
)

// miscompiler wraps a machine with a C compiler that silently turns every
// addition into a subtraction — the kind of toolchain bug the paper's §1.2
// catalog of gcc machine-description comments is full of.
type miscompiler struct {
	*x86.Toolchain
}

func (m *miscompiler) Name() string { return "x86-buggy" }

func (m *miscompiler) CompileC(src string) (string, error) {
	text, err := m.Toolchain.CompileC(src)
	if err != nil {
		return "", err
	}
	return strings.ReplaceAll(text, "addl", "subl"), nil
}

var _ target.Toolchain = (*miscompiler)(nil)

// TestMiscompilingToolchain: the discovery unit must not learn nonsense
// from a broken compiler — the baseline check (every sample must reproduce
// its expected output before any mutation runs) quarantines the damage.
func TestMiscompilingToolchain(t *testing.T) {
	d, err := Discover(&miscompiler{x86.New()}, Options{Seed: 5})
	if err != nil {
		// Failing outright is acceptable (the harness itself miscompiles).
		return
	}
	// If discovery proceeded, the poisoned samples must be skipped, not
	// absorbed: the addition sample cannot have verified semantics.
	for _, solved := range d.Outcome.Solved {
		if solved == "int.add.b_c" {
			t.Error("the miscompiled addition sample must not solve")
		}
	}
	if len(d.Skipped) == 0 && len(d.Outcome.Failed) == 0 {
		t.Error("a broken toolchain must surface as skipped or failed samples")
	}
}

// truncatingAssembler drops the last unit instruction — a corrupt `as`.
type truncatingAssembler struct {
	*x86.Toolchain
}

func (m *truncatingAssembler) Assemble(text string) (*asm.Unit, error) {
	u, err := m.Toolchain.Assemble(text)
	if err != nil {
		return nil, err
	}
	if len(u.Instrs) > 0 {
		u.Instrs = u.Instrs[:len(u.Instrs)-1]
	}
	return u, nil
}

func TestTruncatingAssembler(t *testing.T) {
	// Dropping the trailing `ret` of every unit breaks even the syntax
	// probes' execution; discovery must fail with a diagnosis, not hang
	// or panic.
	_, err := Discover(&truncatingAssembler{x86.New()}, Options{Seed: 5})
	if err == nil {
		t.Error("a truncating assembler should abort discovery")
	}
}

// flakyMachine wraps a machine whose executor lies on a fraction of runs
// (a loose board on the 1997 machine-room shelf): every 17th execution
// reports an extra digit. Discovery must either reject the affected
// samples or abort — never absorb unreproducible behavior as semantics.
type flakyMachine struct {
	*x86.Toolchain
	runs int
}

func (m *flakyMachine) Name() string { return "x86-flaky" }

func (m *flakyMachine) Execute(img *asm.Image) (string, error) {
	out, err := m.Toolchain.Execute(img)
	m.runs++
	if m.runs%17 == 0 && err == nil && len(out) > 1 {
		return "9" + out, nil
	}
	return out, err
}

func TestFlakyExecutor(t *testing.T) {
	// The probe layer's output quorum must absorb the lies outright: a
	// garble that never repeats within one quorum window cannot outvote
	// the truth, so discovery on the flaky machine must reproduce the
	// clean machine's description byte for byte.
	clean, err := Discover(x86.New(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Discover(&flakyMachine{Toolchain: x86.New()}, Options{Seed: 5})
	if err != nil {
		t.Fatalf("the quorum should carry discovery past a 1-in-17 liar: %v", err)
	}
	if d.ProbeStats.QuorumConflicts == 0 {
		t.Error("the flaky runs must surface as quorum conflicts")
	}
	assertExpectShortcutSafe(t, clean.ProbeStats, d.ProbeStats)
	if d.Spec == nil {
		t.Fatalf("no spec synthesized: %v", d.SpecErr)
	}
	got := strings.ReplaceAll(d.Spec.RenderBEG(d.Model), "x86-flaky", "x86")
	if want := clean.Spec.RenderBEG(clean.Model); got != want {
		t.Error("flaky executions leaked into the machine description")
	}
	// And the result must still validate end-to-end on the honest machine.
	for _, r := range d.Validate(x86.New(), ValidationSuite) {
		if !r.OK {
			t.Errorf("%s: got %q want %q (err %v)", r.Program, r.Got, r.Want, r.Err)
		}
	}
}
