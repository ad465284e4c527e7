package sparc_test

import (
	"testing"

	"srcg/internal/target/sparc"
	"srcg/internal/target/targettest"
)

// The compile-and-run programs are targettest's table, shared by the five
// targets.
func TestArith(t *testing.T)                { targettest.Run(t, sparc.New(), "Arith") }
func TestNegativeDivision(t *testing.T)     { targettest.Run(t, sparc.New(), "NegativeDivision") }
func TestShiftsAndBitops(t *testing.T)      { targettest.Run(t, sparc.New(), "Shifts") }
func TestControlFlow(t *testing.T)          { targettest.Run(t, sparc.New(), "ControlFlow") }
func TestRecursionAcrossUnits(t *testing.T) { targettest.Run(t, sparc.New(), "RecursionAcrossUnits") }
func TestGlobalsAndPointers(t *testing.T)   { targettest.Run(t, sparc.New(), "GlobalsAndPointers") }

func TestAssemblerRejectsGarbage(t *testing.T) {
	tc := sparc.New()
	for _, bad := range []string{
		"\tzzqk9 %o0, %o1, %o2",
		"\tld 1235, %l0",
		"\tld %l0, 1235",
		"\tadd %o0, 29173, %o0",
		"\tor %o9, %g0, %o0",
		"\tb 1235",
		"\tadd %o1, 18446744073709551615, %o2", // wraps to -1 in int64
		"\tld [], %l0",                         // used to panic
	} {
		if _, err := tc.Assemble(bad); err == nil {
			t.Errorf("Assemble(%q) accepted", bad)
		}
	}
	if _, err := tc.Assemble("\tset 29173, %l0"); err != nil {
		t.Errorf("set with wide literal rejected: %v", err)
	}
}
