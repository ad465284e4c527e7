package x86_test

import (
	"testing"

	"srcg/internal/target/targettest"
	"srcg/internal/target/x86"
)

// The compile-and-run programs are targettest's table, shared by the five
// targets.
func TestArith(t *testing.T)                { targettest.Run(t, x86.New(), "Arith") }
func TestNegativeDivision(t *testing.T)     { targettest.Run(t, x86.New(), "NegativeDivision") }
func TestShifts(t *testing.T)               { targettest.Run(t, x86.New(), "Shifts") }
func TestControlFlowAndGoto(t *testing.T)   { targettest.Run(t, x86.New(), "ControlFlow") }
func TestRecursionAcrossUnits(t *testing.T) { targettest.Run(t, x86.New(), "RecursionAcrossUnits") }
func TestGlobalsAndPointers(t *testing.T)   { targettest.Run(t, x86.New(), "GlobalsAndPointers") }

func TestAssemblerRejectsGarbage(t *testing.T) {
	tc := x86.New()
	for _, bad := range []string{
		"\tzzqk9 %eax, %ebx",
		"\tmovl 1235, %eax",
		"\tpushl zzqk9",
		"\tmovl %eax8, %ebx",
		"\tjmp 1235",
	} {
		if _, err := tc.Assemble(bad); err == nil {
			t.Errorf("Assemble(%q) accepted", bad)
		}
	}
}
