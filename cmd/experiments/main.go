// Command experiments regenerates every evaluation artifact of the paper
// (the E01-E18 index in DESIGN.md) and prints them in order. EXPERIMENTS.md
// records this output alongside the paper's claims.
//
// Usage:
//
//	experiments [E01 E07 ...]
package main

import (
	"fmt"
	"os"

	"srcg/internal/experiments"
)

func main() {
	ids := os.Args[1:]
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	suite := experiments.NewSuite()
	for _, id := range ids {
		r, err := suite.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(r)
	}
}
