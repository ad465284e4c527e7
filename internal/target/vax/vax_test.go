package vax_test

import (
	"testing"

	"srcg/internal/target/targettest"
	"srcg/internal/target/vax"
)

// The compile-and-run programs are targettest's table, shared by the five
// targets.
func TestArith(t *testing.T)                { targettest.Run(t, vax.New(), "Arith") }
func TestNegativeDivision(t *testing.T)     { targettest.Run(t, vax.New(), "NegativeDivision") }
func TestShiftsAndBitops(t *testing.T)      { targettest.Run(t, vax.New(), "Shifts") }
func TestControlFlow(t *testing.T)          { targettest.Run(t, vax.New(), "ControlFlow") }
func TestRecursionAcrossUnits(t *testing.T) { targettest.Run(t, vax.New(), "RecursionAcrossUnits") }
func TestGlobalsAndPointers(t *testing.T)   { targettest.Run(t, vax.New(), "GlobalsAndPointers") }

func TestAssemblerRejectsGarbage(t *testing.T) {
	tc := vax.New()
	for _, bad := range []string{
		"\tzzqk9 r0, r1, r2",
		"\tmovl 1235, r0",
		"\tmovl r0, $5",
		"\tmovl r12, r0",
		"\tpushl z1",
		"\tjbr 1235",
	} {
		if _, err := tc.Assemble(bad); err == nil {
			t.Errorf("Assemble(%q) accepted", bad)
		}
	}
	if _, err := tc.Assemble("\tmovl $29173, r0"); err != nil {
		t.Errorf("movl with wide literal rejected: %v", err)
	}
}
