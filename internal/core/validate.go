package core

import (
	"fmt"

	"srcg/internal/asm"
	"srcg/internal/beg"
	"srcg/internal/cc"
	"srcg/internal/ir"
	"srcg/internal/obs"
	"srcg/internal/pool"
	"srcg/internal/probe"
	"srcg/internal/target"
)

// Program is one validation program in mini-C.
type Program struct {
	Name   string
	Source string
}

// ValidationSuite exercises every part of a synthesized back end:
// arithmetic, logic, shifts, control flow, loops, recursion, and calls.
var ValidationSuite = []Program{
	{"arith", `main(){int a=313,b=109,c; c = a*b + a/b - a%b; printf("%i\n", c); exit(0);}`},
	{"logic", `main(){int a=503,b=3,c; c = ((a<<b) ^ (a>>1)) & (a|b); printf("%i\n", c); exit(0);}`},
	{"branches", `main(){int a=5,b=9,c=0;
		if (a < b) c = c + 1;
		if (a > b) c = c + 10;
		if (a == 5) c = c + 100;
		if (b != 9) c = c + 1000;
		if (a <= 5) c = c + 10000;
		if (b >= 10) c = c + 100000;
		printf("%i\n", c); exit(0);}`},
	{"loop", `main(){int i=0,s=0; while (i<25) { s = s + i*i; i = i + 1; } printf("%i\n", s); exit(0);}`},
	{"fib", `int fib(int n){ if (n < 2) return n; return fib(n-1) + fib(n-2); }
		main(){int r; r = fib(15); printf("%i\n", r); exit(0);}`},
	{"gcd", `int gcd(int a, int b){ while (b != 0) { int t; t = a % b; a = b; b = t; } return a; }
		main(){int r; r = gcd(20448, 2841); printf("%i\n", r); exit(0);}`},
	{"multiprint", `main(){int i=1; while (i<6) { printf("%i\n", i*i); i = i + 1; } printf("%i\n", 999); exit(0);}`},
	{"negatives", `main(){int a=-37,b=5,c; c = a/b + a%b + (-a); printf("%i\n", c); exit(0);}`},
	{"bitops", `main(){int a=503,b=3,c; c = (a<<b) + (~a & 255) + (-b) + (a ^ 89); printf("%i\n", c); exit(0);}`},
	{"calls", `int sq(int x){ return x*x; }
		int hyp2(int a, int b){ return sq(a) + sq(b); }
		main(){int r; r = hyp2(9, 12) - sq(5); printf("%i\n", r); exit(0);}`},
}

// ValidationResult records one program's outcome on the generated back end.
type ValidationResult struct {
	Program string
	OK      bool
	Err     error
	Got     string
	Want    string
}

// Validate compiles each program through the generated back end, runs it
// on the target, and compares against the reference interpreter — the
// strongest check available for an "(almost) correct" spec (§7.2).
func (d *Discovery) Validate(tc target.Toolchain, progs []Program) []ValidationResult {
	out := make([]ValidationResult, 0, len(progs))
	backend := beg.New(d.Spec)
	// Validation drives the toolchain through the same resilient probe
	// layer as discovery: transient faults retry, noisy runs go to quorum.
	// It shares the discovery run's tracer (its own prober, though — the
	// noisy latch must not leak between toolchains), so validation probes
	// land in the same trace under their own phase span.
	pr := probe.New(tc, probe.Config{Trace: d.Trace})
	_ = d.Trace.Phase(obs.PhaseValidation, func() error {
		out = d.validate(pr, backend, progs)
		return nil
	})
	return out
}

func (d *Discovery) validate(pr *probe.Prober, backend *beg.Backend, progs []Program) []ValidationResult {
	// Programs validate independently, so they fan out over the pool;
	// results come back in program order regardless of worker count.
	workers := 1
	if d.Rig != nil {
		workers = d.Rig.Workers
	}
	return pool.Run(pr, workers, len(progs), func(i int, sub *probe.Prober) ValidationResult {
		p := progs[i]
		r := ValidationResult{Program: p.Name}
		unit, err := cc.CompileUnit(p.Source)
		if err != nil {
			r.Err = fmt.Errorf("front end: %w", err)
			return r
		}
		want, err := ir.Eval(unit)
		if err != nil {
			r.Err = fmt.Errorf("reference eval: %w", err)
			return r
		}
		r.Want = want
		text, err := backend.Compile(unit)
		if err != nil {
			r.Err = fmt.Errorf("back end: %w", err)
			return r
		}
		u, err := sub.Assemble(text)
		if err != nil {
			r.Err = fmt.Errorf("assemble: %w", err)
			return r
		}
		img, err := sub.Link([]*asm.Unit{u})
		if err != nil {
			r.Err = fmt.Errorf("link: %w", err)
			return r
		}
		got, err := sub.Execute(img)
		if err != nil {
			r.Err = fmt.Errorf("execute: %w", err)
			return r
		}
		r.Got = got
		r.OK = got == want
		return r
	})
}
