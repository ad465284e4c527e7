package gen

import (
	"math/rand"
	"strings"
	"testing"

	"srcg/internal/discovery"
)

// TestValuationsSatisfyPayload: for every binary sample, the expectation
// of every valuation must equal the payload's semantics applied to that
// valuation's values — across several seeds.
func TestValuationsSatisfyPayload(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ss, err := Samples(Config{Rand: rand.New(rand.NewSource(seed)), Full: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ss {
			if s.Kind != discovery.PBinary {
				continue
			}
			parts := strings.Split(s.Shape, ",")
			for vi, v := range s.Vals {
				val := func(p string) int64 {
					switch p {
					case "a":
						return v.A0
					case "b":
						return v.B
					case "c":
						return v.C
					default:
						return s.K
					}
				}
				want, ok := eval32(s.COp, val(parts[0]), val(parts[1]))
				if !ok {
					t.Errorf("seed %d %s val %d: payload not evaluable", seed, s.Name, vi)
					continue
				}
				if int32(want) != int32(v.Expect) {
					t.Errorf("seed %d %s val %d: expect %d, payload gives %d",
						seed, s.Name, vi, v.Expect, want)
				}
			}
		}
	}
}

// TestConditionalValuationsCoverBothDirections: every conditional sample's
// valuations must include at least one taken and one not-taken direction,
// or mutation analysis would eliminate the dead side.
func TestConditionalValuationsCoverBothDirections(t *testing.T) {
	ss, err := Samples(Config{Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ss {
		if s.Kind != discovery.PCond {
			continue
		}
		taken, notTaken := false, false
		for _, v := range s.Vals {
			if relHolds(s.COp, v.B, v.C) {
				taken = true
			} else {
				notTaken = true
			}
		}
		if !taken || !notTaken {
			t.Errorf("%s: taken=%v notTaken=%v across valuations", s.Name, taken, notTaken)
		}
	}
}

// TestDivisionSamplesIncludeNegativeDividend: the cltd sign-extension can
// only be pinned by a negative dividend (see EXPERIMENTS.md notes).
func TestDivisionSamplesIncludeNegativeDividend(t *testing.T) {
	ss, err := Samples(Config{Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ss {
		if s.Kind != discovery.PBinary || (s.COp != "/" && s.COp != "%") || s.Shape != "b,c" {
			continue
		}
		neg := false
		for _, v := range s.Vals {
			if v.B < 0 {
				neg = true
			}
		}
		if !neg {
			t.Errorf("%s: no negative-dividend valuation", s.Name)
		}
	}
}

func TestHarnessShape(t *testing.T) {
	h := Harness("a = b + c;")
	for _, want := range []string{"Init(&a, &b, &c)", "Begin:", "End:", "goto Begin", "goto End", `printf("%i\n", a)`} {
		if !strings.Contains(h, want) {
			t.Errorf("harness missing %q", want)
		}
	}
	// Six conditional gotos: three to each label, so each assembly label
	// is referenced at least three times (the Lexer's criterion).
	if strings.Count(h, "goto Begin") != 3 || strings.Count(h, "goto End") != 3 {
		t.Errorf("goto counts wrong:\n%s", h)
	}
}
