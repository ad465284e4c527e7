package sparc_test

import (
	"testing"

	"srcg/internal/target"
	"srcg/internal/target/sparc"
)

func run(t *testing.T, sources ...string) string {
	t.Helper()
	out, err := target.BuildAndRun(sparc.New(), sources)
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
