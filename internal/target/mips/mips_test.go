package mips_test

import (
	"testing"

	"srcg/internal/target/mips"
	"srcg/internal/target/targettest"
)

// The compile-and-run programs are targettest's table, shared by the five
// targets.
func TestArith(t *testing.T)                { targettest.Run(t, mips.New(), "Arith") }
func TestNegativeDivision(t *testing.T)     { targettest.Run(t, mips.New(), "NegativeDivision") }
func TestShiftsAndBitops(t *testing.T)      { targettest.Run(t, mips.New(), "Shifts") }
func TestControlFlow(t *testing.T)          { targettest.Run(t, mips.New(), "ControlFlow") }
func TestRecursionAcrossUnits(t *testing.T) { targettest.Run(t, mips.New(), "RecursionAcrossUnits") }
func TestGlobalsAndPointers(t *testing.T)   { targettest.Run(t, mips.New(), "GlobalsAndPointers") }

func TestAssemblerRejectsGarbage(t *testing.T) {
	tc := mips.New()
	for _, bad := range []string{
		"\tzzqk9 $8, $9, $10",
		"\tlw $8, 1235",
		"\tlw $8, 1235($32)",
		"\tadd $8, $9, 29173",
		"\taddu $32, $8, $9",
		"\tj 1235",
	} {
		if _, err := tc.Assemble(bad); err == nil {
			t.Errorf("Assemble(%q) accepted", bad)
		}
	}
	if _, err := tc.Assemble("\tli $8, 29173"); err != nil {
		t.Errorf("li with wide literal rejected: %v", err)
	}
}
