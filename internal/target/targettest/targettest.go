// Package targettest holds the compile-and-run programs every simulated
// toolchain is tested on: one table for the five targets, so a program
// one target's tests gained runs on all of them.
package targettest

import (
	"testing"

	"srcg/internal/target"
)

// A Program is mini-C translation units, linked together, and what
// running them prints.
type Program struct {
	Sources []string
	Want    string
}

// Programs are the table, by name; each target's tests run every one.
var Programs = map[string]Program{
	"Arith": {[]string{`main(){int a=313,b=109,c; c = a*b + a/b - a%b; printf("%i\n", c); exit(0);}`},
		"34024\n"},
	// Division truncates toward zero.
	"NegativeDivision": {[]string{`main(){int a=-37,b=5,c; c = a/b*1000 + a%b; printf("%i\n", c); exit(0);}`},
		"-7002\n"},
	// ((4024 ^ 251) & 503) = 323, and 4024 + 251 + (-126) = 4149 with
	// arithmetic right shifts.
	"Shifts": {[]string{`main(){int a=503,b=3,c;
		c = ((a<<b) ^ (a>>1)) & (a|b); printf("%i\n", c);
		c = (a<<b) + (a>>1) + ((0-a)>>2); printf("%i\n", c); exit(0);}`},
		"323\n4149\n"},
	"ControlFlow": {[]string{`main(){int i=0,s=0; while (i<10) { if (i>4) s = s + i; i = i + 1; } printf("%i\n", s); exit(0);}`},
		"35\n"},
	"RecursionAcrossUnits": {[]string{
		`extern int fib(); main(){int r; r = fib(10); printf("%i\n", r); exit(0);}`,
		`int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); }`},
		"55\n"},
	"GlobalsAndPointers": {[]string{
		`extern int z1; extern void Init();
		main(){int a; Init(&a); printf("%i\n", a + z1); exit(0);}`,
		`int z1; void Init(n) int *n; { z1 = 7; *n = 1200; }`},
		"1207\n"},
}

// Run builds and runs the named program of Programs on tc and checks what
// it prints.
func Run(t *testing.T, tc target.Toolchain, name string) {
	t.Helper()
	p, ok := Programs[name]
	if !ok {
		t.Fatalf("no program %q", name)
	}
	out, err := target.BuildAndRun(tc, p.Sources)
	if err != nil {
		t.Fatalf("%s: BuildAndRun: %v", tc.Name(), err)
	}
	if out != p.Want {
		t.Errorf("%s: out = %q, want %q", tc.Name(), out, p.Want)
	}
}
