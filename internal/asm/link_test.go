package asm_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"srcg/internal/asm"
	"srcg/internal/gen"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

func toolchains() []target.Toolchain {
	return []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()}
}

// linkCorpus compiles and assembles every quick-set sample (seed 1) with
// its initializer and helper units: the [main, init, helpers] unit
// triples discovery links.
func linkCorpus(tb testing.TB, tc target.Toolchain) [][]*asm.Unit {
	tb.Helper()
	samples, err := gen.Samples(gen.Config{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]*asm.Unit, 0, len(samples))
	for _, s := range samples {
		var units []*asm.Unit
		for _, src := range []string{s.CSource, s.InitSource, s.HelperSource} {
			text, err := tc.CompileC(src)
			if err != nil {
				tb.Fatalf("%s: %s: compile: %v", tc.Name(), s.Name, err)
			}
			u, err := tc.Assemble(text)
			if err != nil {
				tb.Fatalf("%s: %s: assemble: %v", tc.Name(), s.Name, err)
			}
			units = append(units, u)
		}
		out = append(out, units)
	}
	return out
}

// linkDigest links every unit pair of the corpus and hashes, for each
// image in turn, its %v rendering and what executing it prints and
// returns.
func linkDigest(t *testing.T, tc target.Toolchain) string {
	t.Helper()
	corpus := linkCorpus(t, tc)
	// A second, never-linked assembly of the same corpus is the reference
	// the linked units must still deep-equal afterwards.
	pristine := linkCorpus(t, tc)
	h := sha256.New()
	for i, units := range corpus {
		img, err := tc.Link(units)
		if err != nil {
			t.Fatalf("%s: link %d: %v", tc.Name(), i, err)
		}
		fmt.Fprintf(h, "%v", *img)
		out, err := tc.Execute(img)
		fmt.Fprintf(h, "\nexecute %q %v\n", out, err)
		// A copy of the image in which one symbolic operand names
		// nothing reaches the executor's undefined-symbol errors: one
		// copy per opcode, at its first symbolic operand.
		seen := map[string]bool{}
		for k, ins := range img.Instrs {
			for j, a := range ins.Args {
				if a.Sym == "" || seen[ins.Op] {
					continue
				}
				seen[ins.Op] = true
				bad := *img
				bad.Instrs = slices.Clone(img.Instrs)
				bad.Instrs[k].Args = slices.Clone(ins.Args)
				bad.Instrs[k].Args[j].Sym = "nosuch"
				out, err := tc.Execute(&bad)
				fmt.Fprintf(h, "execute %d.%d %q %v\n", k, j, out, err)
			}
		}
		if !reflect.DeepEqual(units, pristine[i]) {
			t.Errorf("%s: link %d wrote through to its input units", tc.Name(), i)
		}
	}
	return fmt.Sprintf("%s %d %s\n", tc.Name(), len(corpus), hex.EncodeToString(h.Sum(nil)))
}

// TestLinkImagesGolden pins the images the simulated linkers produce for a
// fixed corpus on all five targets, and the output and error of running
// each, and checks that linking never writes through to the units it
// reads. Regenerate the digest with
//
//	SRCG_UPDATE_GOLDEN=1 go test ./internal/asm -run TestLinkImagesGolden
//
// after an intentional change to the compilers, assemblers, linker or
// executors.
func TestLinkImagesGolden(t *testing.T) {
	var sb strings.Builder
	for _, tc := range toolchains() {
		sb.WriteString(linkDigest(t, tc))
	}
	got := sb.String()
	golden := filepath.Join("testdata", "link_digest.txt")
	if os.Getenv("SRCG_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden digest (SRCG_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("linked images drifted from golden:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestLinkSharedUnitsConcurrently links one corpus from several goroutines
// at once, as pool workers link a shared initializer unit; under -race it
// checks that nothing a link reads of a unit is written.
func TestLinkSharedUnitsConcurrently(t *testing.T) {
	tc := vax.New()
	corpus := linkCorpus(t, tc)
	want := make([]string, len(corpus))
	for i, units := range corpus {
		img, err := tc.Link(units)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprintf("%v", *img)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, units := range corpus {
				img, err := tc.Link(units)
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprintf("%v", *img); got != want[i] {
					t.Errorf("link %d differs under concurrency", i)
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkLink links the alpha corpus: one op is all 39 [main, init,
// helpers] triples.
func BenchmarkLink(b *testing.B) {
	tc := alpha.New()
	corpus := linkCorpus(b, tc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, units := range corpus {
			if _, err := tc.Link(units); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAssemble assembles the compiled quick-set corpus (seed 1) on
// all five targets: one op is every [main, init, helpers] text of every
// target.
func BenchmarkAssemble(b *testing.B) {
	samples, err := gen.Samples(gen.Config{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		b.Fatal(err)
	}
	type text struct {
		tc  target.Toolchain
		asm string
	}
	var texts []text
	for _, tc := range toolchains() {
		for _, s := range samples {
			for _, src := range []string{s.CSource, s.InitSource, s.HelperSource} {
				t, err := tc.CompileC(src)
				if err != nil {
					b.Fatalf("%s: %s: compile: %v", tc.Name(), s.Name, err)
				}
				texts = append(texts, text{tc, t})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range texts {
			if _, err := t.tc.Assemble(t.asm); err != nil {
				b.Fatal(err)
			}
		}
	}
}
