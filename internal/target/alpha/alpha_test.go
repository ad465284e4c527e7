package alpha_test

import (
	"math/rand"
	"testing"

	"srcg/internal/asm"
	"srcg/internal/gen"
	"srcg/internal/target/alpha"
	"srcg/internal/target/targettest"
)

// The compile-and-run programs are targettest's table, shared by the five
// targets.
func TestArith(t *testing.T)                { targettest.Run(t, alpha.New(), "Arith") }
func TestNegativeDivision(t *testing.T)     { targettest.Run(t, alpha.New(), "NegativeDivision") }
func TestShiftsAndBitops(t *testing.T)      { targettest.Run(t, alpha.New(), "Shifts") }
func TestControlFlow(t *testing.T)          { targettest.Run(t, alpha.New(), "ControlFlow") }
func TestRecursionAcrossUnits(t *testing.T) { targettest.Run(t, alpha.New(), "RecursionAcrossUnits") }
func TestGlobalsAndPointers(t *testing.T)   { targettest.Run(t, alpha.New(), "GlobalsAndPointers") }

func TestAssemblerRejectsGarbage(t *testing.T) {
	tc := alpha.New()
	for _, bad := range []string{
		"\tzzqk9 $8, $9, $10",
		"\tlw $8, 1235",
		"\tldl $1, 1235($32)",
		"\taddl $1, 287, $32",
		"\taddl $1, 999, $2",
		"\tbr 1235",
		"\taddl $1, 18446744073709551617, $2", // wraps to 1 in int64
	} {
		if _, err := tc.Assemble(bad); err == nil {
			t.Errorf("Assemble(%q) accepted", bad)
		}
	}
	if _, err := tc.Assemble("\tldil $1, 29173"); err != nil {
		t.Errorf("ldil with wide literal rejected: %v", err)
	}
}

// BenchmarkExecute runs the linked quick-set samples (seed 1): one op
// executes all of them once.
func BenchmarkExecute(b *testing.B) {
	tc := alpha.New()
	samples, err := gen.Samples(gen.Config{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		b.Fatal(err)
	}
	var imgs []*asm.Image
	for _, s := range samples {
		var units []*asm.Unit
		for _, src := range []string{s.CSource, gen.InitUnit(s.Vals[:1]), s.HelperSource} {
			text, err := tc.CompileC(src)
			if err != nil {
				b.Fatal(err)
			}
			u, err := tc.Assemble(text)
			if err != nil {
				b.Fatal(err)
			}
			units = append(units, u)
		}
		img, err := tc.Link(units)
		if err != nil {
			b.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, img := range imgs {
			if _, err := tc.Execute(img); err != nil {
				b.Fatal(err)
			}
		}
	}
}
