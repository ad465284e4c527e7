// Crossarch reproduces the paper's §7.2 status table: the discovery unit
// runs against all five simulated architectures and reports, per machine,
// the discovered syntax, register count, extracted semantics, validation
// outcome of the generated back end, and the toolchain interaction cost.
package main

import (
	"fmt"
	"os"

	"srcg"
)

func main() {
	fmt.Printf("%-6s %4s %5s %7s %6s %9s %10s\n",
		"arch", "regs", "sems", "samples", "valid", "mutations", "executions")
	for _, name := range srcg.TargetNames() {
		t := srcg.NewTarget(name)
		d, err := srcg.Discover(t, srcg.Options{Seed: 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		valid := 0
		if d.Spec != nil {
			for _, r := range d.Validate(t, srcg.ValidationSuite) {
				if r.OK {
					valid++
				}
			}
		}
		fmt.Printf("%-6s %4d %5d %4d/%-2d %4d/%-2d %9d %10d\n",
			name, len(d.Model.Registers), len(d.Ext.Sems),
			len(d.Outcome.Solved), len(d.Outcome.Solved)+len(d.Outcome.Failed),
			valid, len(srcg.ValidationSuite),
			d.Cost.Mutations, d.Cost.Executions)
	}
	fmt.Println("\n(the paper, §7.2: \"tested on the integer instruction sets of five")
	fmt.Println(" machines ... shown to generate (almost) correct machine specifications\")")
}
