package main

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"srcg"
)

// TestGoldenCoversSeeds checks golden.json has every golden seed and
// target, and that only vax misses a validation program: logic, whose
// variable shift is the paper's §5.2.3 gap.
func TestGoldenCoversSeeds(t *testing.T) {
	for _, seed := range goldenSeeds {
		g, err := goldenFor(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, arch := range srcg.TargetNames() {
			e, ok := g[arch]
			if !ok {
				t.Fatalf("seed %d: no golden for %s", seed, arch)
			}
			want := len(srcg.ValidationSuite)
			if arch == "vax" {
				want--
			}
			if len(e.Validation) != want || slices.Contains(e.Validation, "logic") == (arch == "vax") {
				t.Errorf("seed %d %s: validation passes %v", seed, arch, e.Validation)
			}
		}
	}
	if g, _ := goldenFor(0); g != nil {
		t.Error("seed 0 has a golden entry")
	}
}

// TestGoldenPinsVAX discovers vax at seed 1 and holds it to golden.json,
// then shows the checker refuses a discovery whose MD differs.
func TestGoldenPinsVAX(t *testing.T) {
	d, err := srcg.Discover(srcg.NewTarget("vax"), srcg.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newChecker(1)
	if err != nil {
		t.Fatal(err)
	}
	chk.check("vax", d, nil, "")
	if chk.failed != 0 {
		t.Fatalf("vax seed 1 does not match golden.json: %v", chk.problems)
	}

	e := chk.golden["vax"]
	e.MDSHA256 = strings.Repeat("0", 64)
	wrong := newCheckerFor(map[string]goldenMD{"vax": e})
	wrong.check("vax", d, nil, "")
	if wrong.failed != 1 {
		t.Error("a discovery with a different MD passed the golden check")
	}
}

// TestCheckerWithoutGolden runs the validation-only fallback for a seed
// golden.json does not cover.
func TestCheckerWithoutGolden(t *testing.T) {
	const seed = 99
	if g, _ := goldenFor(seed); g != nil {
		t.Skip("seed " + strconv.Itoa(seed) + " has a golden entry")
	}
	chk, err := newChecker(seed)
	if err != nil {
		t.Fatal(err)
	}
	d, err := srcg.Discover(srcg.NewTarget("vax"), srcg.Options{Seed: seed})
	chk.check("vax", d, err, "")
	chk.check("vax", d, err, "")
	if chk.failed != 0 || chk.attempted != 2 {
		t.Fatalf("attempted %d failed %d: %v", chk.attempted, chk.failed, chk.problems)
	}
	if len(chk.validated) != 1 {
		t.Errorf("validation ran for %d digests, want 1 memoized", len(chk.validated))
	}
}
