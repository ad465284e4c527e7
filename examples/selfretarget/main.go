// Selfretarget: the paper's Fig. 1 scenario as a library user would run
// it. The compiler `ac` is pointed at a SPARC it has never seen; the
// discovery unit learns the machine, the back-end generator produces a
// code generator from the synthesized description, and two programs (gcd
// and fibonacci) are compiled, executed on the simulated machine, and
// checked against the reference interpreter.
package main

import (
	"fmt"
	"os"

	"srcg"
	"srcg/internal/asm"
	"srcg/internal/beg"
	"srcg/internal/cc"
	"srcg/internal/ir"
)

var programs = []struct{ name, src string }{
	{"gcd", `
int gcd(int a, int b) { while (b != 0) { int t; t = a % b; a = b; b = t; } return a; }
main() { printf("%i\n", gcd(20448, 2841)); exit(0); }`},
	{"fib", `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
main() { int i; i = 1; while (i < 11) { printf("%i\n", fib(i)); i = i + 1; } exit(0); }`},
}

func main() {
	t := srcg.NewTarget("sparc")
	fmt.Println("discovering the sparc architecture...")
	d, err := srcg.Discover(t, srcg.Options{Seed: 1})
	if err != nil || d.SpecErr != nil {
		fmt.Fprintln(os.Stderr, err, d.SpecErr)
		os.Exit(1)
	}
	fmt.Printf("done: %d instruction semantics, %d samples solved, cost %s\n\n",
		len(d.Ext.Sems), len(d.Outcome.Solved), d.Cost)

	backend := beg.New(d.Spec)
	for _, p := range programs {
		unit, err := cc.CompileUnit(p.src)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		text, err := backend.Compile(unit)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		u, err := t.Assemble(text)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		img, err := t.Link([]*asm.Unit{u})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		got, err := t.Execute(img)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		want, _ := ir.Eval(unit)
		status := "MISMATCH"
		if got == want {
			status = "matches the reference interpreter"
		}
		fmt.Printf("%s on sparc: %s\n%s", p.name, status, got)
	}
}
