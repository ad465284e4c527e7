package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"srcg"
)

// golden.json pins, per seed and target, the serial discovery's machine
// description (sha256 of Spec.RenderBEG), its solved count, and the
// validation programs whose output matches the ir.Eval reference.
// Regenerate it with -update-golden after a change that means to alter
// a discovered MD, and say why in the change.
//
//go:embed golden.json
var goldenJSON []byte

// goldenSeeds are the seeds golden.json covers: 1 is the default seed, 2
// is held out for claims, 3 is a spare.
var goldenSeeds = []int64{1, 2, 3}

type goldenMD struct {
	MDSHA256   string   `json:"md_sha256"`
	Solved     int      `json:"solved"`
	Validation []string `json:"validation_pass"`
}

// goldenFor returns seed's golden entries by target, or nil if
// golden.json does not cover the seed.
func goldenFor(seed int64) (map[string]goldenMD, error) {
	var all map[string]map[string]goldenMD
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return all[strconv.FormatInt(seed, 10)], nil
}

func mdDigest(d *srcg.Discovery) string {
	sum := sha256.Sum256([]byte(d.Spec.RenderBEG(d.Model)))
	return hex.EncodeToString(sum[:])
}

// validationPass runs the validation suite through d's generated back end
// on a fresh, fault-free target. It returns the programs whose output
// matches the reference interpreter, and a problem for any program that
// printed a wrong answer or failed for a reason other than a declared
// spec gap (the VAX Shr limit of paper §5.2.3).
func validationPass(arch string, d *srcg.Discovery) (pass []string, problem string) {
	for _, r := range d.Validate(srcg.NewTarget(arch), srcg.ValidationSuite) {
		switch {
		case r.OK:
			pass = append(pass, r.Program)
		case r.Err == nil:
			problem = fmt.Sprintf("validation %s printed %q, reference %q", r.Program, r.Got, r.Want)
		case !strings.Contains(r.Err.Error(), "spec gap") && problem == "":
			problem = fmt.Sprintf("validation %s: %v", r.Program, r.Err)
		}
	}
	sort.Strings(pass)
	return pass, problem
}

// checker judges every discovery a run makes. With a golden entry for the
// seed, a discovery must reproduce the golden MD byte for byte, its solved
// count, and its validation results; without one it must validate and
// agree with the run's first discovery of the same target.
type checker struct {
	golden    map[string]goldenMD
	first     map[string]string  // target → first MD digest (no-golden fallback)
	validated map[string]verdict // MD digest → validation outcome
	attempted int
	failed    int
	problems  []string
}

type verdict struct {
	pass    []string
	problem string
}

func newChecker(seed int64) (*checker, error) {
	g, err := goldenFor(seed)
	if err != nil {
		return nil, err
	}
	if g == nil {
		fmt.Fprintf(os.Stderr, "bench: warning: no golden MD for seed %d; checking validation only\n", seed)
	}
	return newCheckerFor(g), nil
}

// newCheckerFor checks against golden, by target; nil means validation only.
func newCheckerFor(golden map[string]goldenMD) *checker {
	return &checker{golden: golden, first: map[string]string{}, validated: map[string]verdict{}}
}

// check records one discovery's verdict; extra is a problem the caller
// found itself ("" for none).
func (c *checker) check(arch string, d *srcg.Discovery, err error, extra string) {
	c.attempted++
	p := extra
	if p == "" {
		p = c.problem(arch, d, err)
	}
	if p != "" {
		c.failed++
		c.problems = append(c.problems, arch+": "+p)
	}
}

func (c *checker) problem(arch string, d *srcg.Discovery, err error) string {
	if err != nil {
		return err.Error()
	}
	if d.Spec == nil {
		return fmt.Sprintf("no machine description: %v", d.SpecErr)
	}
	md := mdDigest(d)
	g, ok := c.golden[arch]
	switch {
	case ok && md != g.MDSHA256:
		return fmt.Sprintf("MD sha256 %.12s, golden %.12s", md, g.MDSHA256)
	case ok && len(d.Outcome.Solved) != g.Solved:
		return fmt.Sprintf("solved %d, golden %d", len(d.Outcome.Solved), g.Solved)
	case !ok && c.first[arch] != "" && md != c.first[arch]:
		return fmt.Sprintf("MD sha256 %.12s differs from this run's first %.12s", md, c.first[arch])
	}
	if c.first[arch] == "" {
		c.first[arch] = md
	}
	// Validation is a pure function of the MD, so it runs once per digest.
	v, seen := c.validated[md]
	if !seen {
		v.pass, v.problem = validationPass(arch, d)
		c.validated[md] = v
	}
	if v.problem != "" {
		return v.problem
	}
	if ok && !slices.Equal(v.pass, g.Validation) {
		return fmt.Sprintf("validation passes %v, golden %v", v.pass, g.Validation)
	}
	return ""
}

// writeGolden discovers every target serially at each golden seed and
// writes the pins to path.
func writeGolden(path string) error {
	all := map[string]map[string]goldenMD{}
	for _, seed := range goldenSeeds {
		bySeed := map[string]goldenMD{}
		for _, arch := range srcg.TargetNames() {
			d, err := srcg.Discover(srcg.NewTarget(arch), srcg.Options{Seed: seed})
			if err != nil {
				return fmt.Errorf("seed %d %s: %w", seed, arch, err)
			}
			pass, problem := validationPass(arch, d)
			if problem != "" {
				return fmt.Errorf("seed %d %s: %s", seed, arch, problem)
			}
			bySeed[arch] = goldenMD{MDSHA256: mdDigest(d), Solved: len(d.Outcome.Solved), Validation: pass}
		}
		all[strconv.FormatInt(seed, 10)] = bySeed
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
