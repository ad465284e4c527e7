// Command discover runs the architecture discovery unit against a
// simulated target machine and prints the discovered model, the extracted
// instruction semantics, and the synthesized BEG-style machine
// description.
//
// Usage:
//
//	discover -arch sparc [-seed 1] [-full] [-beg] [-validate] [-faults 7:0.1]
//	         [-trace run.jsonl [-traceformat chrome]]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The profiles cover the discovery alone; samples carry the srcg_phase
// pprof label of the discovery phase they ran in (go tool pprof -tagfocus).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"srcg"
	"srcg/internal/cliflags"
)

func main() {
	arch := flag.String("arch", "x86", "target architecture (x86, sparc, mips, alpha, vax)")
	beg := flag.Bool("beg", false, "print the synthesized BEG machine description")
	validate := flag.Bool("validate", false, "compile and run the validation suite through the generated back end")
	dot := flag.String("dot", "", "print the data-flow graph of the named sample (e.g. int.div.b_c) in Graphviz format")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the discovery to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the discovery to this file")
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()

	t, err := common.WrapTarget(*arch)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tr, closeTrace, err := common.OpenTrace()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopCPU := startCPUProfile(*cpuprofile)
	d, err := srcg.Discover(t, common.Options(tr))
	stopCPU()
	writeHeapProfile(*memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "discovery failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(d.Report())
	if d.SpecErr != nil {
		fmt.Printf("synthesis: %v\n", d.SpecErr)
	}
	if *beg && d.Spec != nil {
		fmt.Println()
		fmt.Print(d.Spec.RenderBEG(d.Model))
	}
	if *dot != "" {
		g, ok := d.Graphs[*dot]
		if !ok {
			fmt.Fprintf(os.Stderr, "no graph for sample %q\n", *dot)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(g.Dot())
	}
	if *validate && d.Spec != nil {
		fmt.Println()
		for _, r := range d.Validate(t, srcg.ValidationSuite) {
			status := "ok"
			if !r.OK {
				status = fmt.Sprintf("FAIL (%v)", r.Err)
			}
			fmt.Printf("validate %-12s %s\n", r.Program, status)
		}
	}
	if tr != nil {
		if err := closeTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s\n", tr.Events(), common.TracePath)
	}
}

// startCPUProfile starts profiling the CPU into path ("" = no profile)
// and returns the function that stops it and closes the file.
func startCPUProfile(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		os.Exit(2)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeHeapProfile writes a heap profile to path ("" = no profile) after
// a collection, so its in-use figures are what the finished discovery
// still holds.
func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	runtime.GC()
	f, err := os.Create(path)
	if err == nil {
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		os.Exit(1)
	}
}
