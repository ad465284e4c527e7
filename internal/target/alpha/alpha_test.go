package alpha_test

import (
	"math/rand"
	"testing"

	"srcg/internal/asm"
	"srcg/internal/gen"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
)

func run(t *testing.T, sources ...string) string {
	t.Helper()
	out, err := target.BuildAndRun(alpha.New(), sources)
	if err != nil {
		t.Fatalf("BuildAndRun: %v", err)
	}
	return out
}

func TestArith(t *testing.T) {
	out := run(t, `main(){int a=313,b=109,c; c = a*b + a/b - a%b; printf("%i\n", c); exit(0);}`)
	if out != "34024\n" {
		t.Errorf("out = %q, want 34024", out)
	}
}

func TestNegativeDivision(t *testing.T) {
	out := run(t, `main(){int a=-37,b=5,c; c = a/b*1000 + a%b; printf("%i\n", c); exit(0);}`)
	if out != "-7002\n" {
		t.Errorf("out = %q, want -7002 (truncating division)", out)
	}
}

func TestShiftsAndBitops(t *testing.T) {
	out := run(t, `main(){int a=503,b=3,c; c = ((a<<b) ^ (a>>1)) & (a|b); printf("%i\n", c); exit(0);}`)
	// ((4024 ^ 251) & 503) = 323
	if out != "323\n" {
		t.Errorf("out = %q, want 323", out)
	}
}

func TestControlFlow(t *testing.T) {
	out := run(t, `main(){int i=0,s=0; while (i<10) { if (i>4) s = s + i; i = i + 1; } printf("%i\n", s); exit(0);}`)
	if out != "35\n" {
		t.Errorf("out = %q, want 35", out)
	}
}

func TestRecursionAcrossUnits(t *testing.T) {
	main := `extern int fib(); main(){int r; r = fib(10); printf("%i\n", r); exit(0);}`
	lib := `int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); }`
	out := run(t, main, lib)
	if out != "55\n" {
		t.Errorf("out = %q, want 55", out)
	}
}

func TestGlobalsAndPointers(t *testing.T) {
	main := `extern int z1; extern void Init();
		main(){int a; Init(&a); printf("%i\n", a + z1); exit(0);}`
	lib := `int z1; void Init(n) int *n; { z1 = 7; *n = 1200; }`
	out := run(t, main, lib)
	if out != "1207\n" {
		t.Errorf("out = %q, want 1207", out)
	}
}

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
