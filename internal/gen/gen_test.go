package gen

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"srcg/internal/discovery"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

func fullSamples(t *testing.T) []*discovery.Sample {
	t.Helper()
	ss, err := Samples(Config{Rand: rand.New(rand.NewSource(42)), Full: true})
	if err != nil {
		t.Fatalf("Samples: %v", err)
	}
	return ss
}

func TestSampleCount(t *testing.T) {
	ss := fullSamples(t)
	// 10 ops × 8 shapes + 2 unary + 1 move + 4 const + 18 cond + 3 call
	// + 1 register-pressure.
	want := 10*8 + 2 + 1 + 4 + 18 + 3 + 1
	if len(ss) != want {
		t.Errorf("sample count = %d, want %d", len(ss), want)
	}
	names := map[string]bool{}
	for _, s := range ss {
		if names[s.Name] {
			t.Errorf("duplicate sample name %q", s.Name)
		}
		names[s.Name] = true
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Samples(Config{Rand: rand.New(rand.NewSource(7)), Full: true})
	b, _ := Samples(Config{Rand: rand.New(rand.NewSource(7)), Full: true})
	for i := range a {
		if a[i].CSource != b[i].CSource || a[i].InitSource != b[i].InitSource {
			t.Fatalf("sample %d differs between identical seeds", i)
		}
	}
}

func TestDistinctValues(t *testing.T) {
	if distinctFor("*", 2, 1) {
		t.Error("(2,1) should be rejected for *: 2*1 == 2/1 == 2")
	}
	if !distinctFor("*", 313, 109) {
		t.Error("(313,109) should be accepted for * (the paper's example)")
	}
}

// TestSamplesRunOnAllTargets is the keystone integration test: every
// generated sample must compile, assemble, link, and execute on every
// simulated machine, producing exactly the output the Generator predicted,
// under its base valuation and with every valuation in one image. It
// generates the quick and full sets at seeds 1–3 with and without
// NoVariants: the two runs must draw the same samples and base valuations
// (NoVariants drops the variants after drawing them), and a NoVariants
// sample carries its base valuation alone, so its image is Fig. 3's.
func TestSamplesRunOnAllTargets(t *testing.T) {
	type pair struct{ s, base *discovery.Sample }
	var pairs []pair
	for seed := int64(1); seed <= 3; seed++ {
		for _, full := range []bool{false, true} {
			ss, err := Samples(Config{Rand: rand.New(rand.NewSource(seed)), Full: full})
			if err != nil {
				t.Fatal(err)
			}
			bs, err := Samples(Config{Rand: rand.New(rand.NewSource(seed)), Full: full, NoVariants: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(bs) != len(ss) {
				t.Fatalf("seed %d full=%v: %d samples under NoVariants, %d without", seed, full, len(bs), len(ss))
			}
			for i, s := range ss {
				b := bs[i]
				if b.Name != s.Name || b.Payload != s.Payload || b.K != s.K || b.Vals[0] != s.Vals[0] || b.InitSource != InitUnit(s.Vals[:1]) {
					t.Errorf("seed %d full=%v sample %d: NoVariants drew %s %q K=%d %+v, want %s %q K=%d %+v",
						seed, full, i, b.Name, b.Payload, b.K, b.Vals[0], s.Name, s.Payload, s.K, s.Vals[0])
				}
				if len(b.Vals) != 1 || b.ExpectedOut != b.Vals[0].ExpectedOut {
					t.Errorf("seed %d full=%v %s: NoVariants sample has %d valuations, printing %q",
						seed, full, b.Name, len(b.Vals), b.ExpectedOut)
				}
				pairs = append(pairs, pair{s, b})
			}
		}
	}
	targets := []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()}
	for _, tc := range targets {
		t.Run(tc.Name(), func(t *testing.T) {
			for _, p := range pairs {
				// The NoVariants sample's image is the base valuation's
				// Fig. 3 image.
				for _, s := range []*discovery.Sample{p.base, p.s} {
					out, err := target.BuildAndRun(tc, []string{s.CSource, s.InitSource, s.HelperSource})
					if err != nil || out != s.ExpectedOut {
						t.Errorf("%s with %d valuations: out = %q, %v, want %q (payload %q, vals %+v)",
							s.Name, len(s.Vals), out, err, s.ExpectedOut, s.Payload, s.Vals)
					}
				}
			}
		})
	}
}

// TestVariantValuesStayDistinctive pins the rule that variant valuations
// of literal-operand shapes re-check distinctness on the *final* values:
// a variant pairing the fixed literal K with a divisor of K would make
// K % b zero — a coincidence that once masked the x86 idivl's %edx
// definition (the remainder equalled cltd's sign extension).
func TestVariantValuesStayDistinctive(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ss, err := Samples(Config{Rand: rand.New(rand.NewSource(seed)), Full: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ss {
			if s.Kind != discovery.PBinary || !strings.Contains(s.Shape, "K") {
				continue
			}
			for i, v := range s.Vals {
				e := v.Expect
				if e == 0 || e == 1 || e == -1 {
					t.Errorf("seed %d %s valuation %d: degenerate expect %d (b=%d c=%d k=%d)",
						seed, s.Name, i, e, v.B, v.C, s.K)
				}
			}
		}
	}
}

// TestHarnessKeepsRegion: the harness's loop back to Init lies outside
// Begin..End, so every sample's payload compiles to the same region text
// under it as under Fig. 3's main (testdata/fig3_main.c) on every target,
// for the quick and the full sample set.
func TestHarnessKeepsRegion(t *testing.T) {
	fig3, err := os.ReadFile(filepath.Join("testdata", "fig3_main.c"))
	if err != nil {
		t.Fatal(err)
	}
	region := func(text string) (string, bool) {
		_, rest, ok := strings.Cut(text, "\nBegin:\n")
		if !ok {
			return "", false
		}
		body, _, ok := strings.Cut(rest, "\nEnd:\n")
		return body, ok
	}
	for _, full := range []bool{false, true} {
		ss, err := Samples(Config{Rand: rand.New(rand.NewSource(1)), Full: full})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()} {
			for _, s := range ss {
				old, err := tc.CompileC(strings.Replace(string(fig3), "PAYLOAD", s.Payload, 1))
				if err != nil {
					t.Fatalf("%s %s: Fig. 3 main: %v", tc.Name(), s.Name, err)
				}
				cur, err := tc.CompileC(s.CSource)
				if err != nil {
					t.Fatalf("%s %s: %v", tc.Name(), s.Name, err)
				}
				want, ok1 := region(old)
				got, ok2 := region(cur)
				if !ok1 || !ok2 || got != want {
					t.Errorf("%s %s (full=%v): region\n%s\nwant Fig. 3's\n%s", tc.Name(), s.Name, full, got, want)
				}
			}
		}
	}
}
