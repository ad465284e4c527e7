package target_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"srcg/internal/core"
	"srcg/internal/gen"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

func compileTargets() []target.Toolchain {
	return []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()}
}

// recorder is a toolchain that notes every source its compiler is given.
type recorder struct {
	target.Toolchain
	srcs []string
}

func (r *recorder) CompileC(src string) (string, error) {
	r.srcs = append(r.srcs, src)
	return r.Toolchain.CompileC(src)
}

// sampleSources returns the three translation units of every sample the
// generator makes at the seed, on the quick or the full shape set.
func sampleSources(tb testing.TB, seed int64, full bool) []string {
	tb.Helper()
	samples, err := gen.Samples(gen.Config{Rand: rand.New(rand.NewSource(seed)), Full: full})
	if err != nil {
		tb.Fatal(err)
	}
	var srcs []string
	for _, s := range samples {
		srcs = append(srcs, s.CSource, s.InitSource, s.HelperSource)
	}
	return srcs
}

// edgeSources reach the compilers' paths the generated samples rarely or
// never take: calls and multiplies nested in operands and arguments,
// stores through pointers and to globals, every branch relation against
// zero, small, wide and computed operands, expressions deep enough to
// spill or to run out of registers or spill slots, and the argument and
// parameter limits. They are compiled only, not run.
var edgeSources = []string{
	`int f(int a, int b, int c, int d){ return a; } main(){ exit(0); }`,
	`int f(int a, int b){ return a; } main(){ int r; r = f(1, 2, 3, 4); exit(0); }`,
	`int g; int f(int a, int b, int c){ return a*b - c; }
int h(int x){ g = x%7; return x+1; }
main(){ int a=9,b=-4,c=300,*p,r;
	p = &a;
	*p = b*c;
	*p = h(c);
	g = a/b;
	g = f(a, b, c);
	r = f(h(1), 2, 3);
	r = f(1, h(2), b*c);
	r = f(a*b, c/b, c%a);
	r = f(a, b, h(c)*2);
	r = a*h(b) + h(a)/b;
	r = (a+b)*(c-a) + a*(b*c) + a/(b%c);
	r = -(a*b) + ~(a+g) + -h(a) + ~*p;
	r = *p + g + *&a;
	r = h(h(a)) + h(a*b) + h(-a);
	h(r);
	r + 1;
	if (a == 0) r = 1;
	if (a != 0) r = 2;
	if (a < 5) r = 3;
	if (a <= 4095) r = 4;
	if (a > -4096) r = 5;
	if (a >= 5000) r = 6;
	if (a < b) r = 7;
	if (a > b) r = 8;
	if (a >= h(b)) r = 9;
	if (!(a <= b*c) && (g || r)) r = 10;
	r = r << 3;
	r = (r << b) + (g >> 2);
	printf("%i %i\n", r, g);
	exit(0);
}`,
	`int f(int x){ if (x < 2) return x; return x*f(x-1); }
int g(int x){ return f(x)/3; }
int k(){ return 7; }
int *q;
int m(int *p){ q = p; return *q; }
main(){ int v; v = 5; printf("%i %i\n", f(5), g(4)); printf("%i %i\n", k(), m(&v)); exit(0); }`,
	`main(){ int a=1,b=2,c=3,d=4,e=5,f=6,g=7,h=8,i=9,r;
	r = a+(b+(c+(d+(e+(f+(g+(h+i)))))));
	printf("%i\n", r); exit(0); }`,
	`main(){ int a=1,b=2,c=3,d=4,e=5,f=6,g=7,h=8,i=9,r;
	r = a-(b*(c-(d*(e-(f*(g-(h*(i-(a*(b-(c*(d+e))))))))))));
	printf("%i\n", r); exit(0); }`,
	`main(){ int a=1,b=2,c=3,d=4,e=5,f=6,g=7,h=8,i=9,r;
	r = a+(b+(c+(d+(e+(f+(g+(h+(i+(a+(b+(c+(d+(e+(f+(g+h)))))))))))))));
	printf("%i\n", r); exit(0); }`,
	`int s(int x){ return x; }
main(){ int a=1,r;
	r = a+(a+(a+(a+s(a))));
	r = a+(a+(a+(a+(a+(a+s(a))))));
	printf("%i\n", r); exit(0); }`,
	`int t(int x, int y, int z){ return x+y+z; }
main(){ int a=3,r;
	r = t(a, t(a, a, a), t(1, 2, t(a, a*a, a/2)));
	r = t(t(t(t(t(a,a,a),a,a),a,a),a,a), t(t(t(a,a,a),a,a),a,a), a);
	printf("%i\n", r); exit(0); }`,
	`main(){ int a; a = 1; L: a = a + 1; if (a < 5) goto L; printf("%s\n", "done"); exit(0); }`,
	`void w(){ } main(){ w(); return; }`,
	`int r(){ return 70000; } main(){ int x; x = r() + 100000; printf("%i\n", x); exit(0); }`,
}

// compileCorpus is every distinct source, in first-seen order, of
// edgeSources, of the quick and full samples at seeds 1-3 and of what a
// seed-1 quick discovery and validation compile on each target: the
// lexer's probes, the register and immediate enquiries, and MD
// synthesis's probes.
func compileCorpus(t *testing.T) []string {
	t.Helper()
	all := slices.Clone(edgeSources)
	for seed := int64(1); seed <= 3; seed++ {
		for _, full := range []bool{false, true} {
			all = append(all, sampleSources(t, seed, full)...)
		}
	}
	for _, tc := range compileTargets() {
		rec := &recorder{Toolchain: tc}
		d, err := core.Discover(rec, core.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: discover: %v", tc.Name(), err)
		}
		d.Validate(rec, core.ValidationSuite)
		all = append(all, rec.srcs...)
	}
	seen := map[string]bool{}
	var corpus []string
	for _, src := range all {
		if !seen[src] {
			seen[src] = true
			corpus = append(corpus, src)
		}
	}
	return corpus
}

// TestCompilerOutputGolden pins what each simulated C compiler emits, or
// the error it reports, for every source of compileCorpus. Regenerate with
//
//	SRCG_UPDATE_GOLDEN=1 go test ./internal/target -run TestCompilerOutputGolden
//
// only after an intended change to a compiler's output.
func TestCompilerOutputGolden(t *testing.T) {
	corpus := compileCorpus(t)
	var sb strings.Builder
	for _, tc := range compileTargets() {
		h := sha256.New()
		failed := 0
		for _, src := range corpus {
			text, err := tc.CompileC(src)
			if err != nil {
				failed++
				fmt.Fprintf(h, "%s\n-> error %v\n", src, err)
				continue
			}
			fmt.Fprintf(h, "%s\n-> %s\n", src, text)
		}
		fmt.Fprintf(&sb, "%s sources=%d errors=%d %s\n", tc.Name(), len(corpus), failed,
			hex.EncodeToString(h.Sum(nil)))
	}
	got := sb.String()
	golden := filepath.Join("testdata", "compile_digest.txt")
	if os.Getenv("SRCG_UPDATE_GOLDEN") != "" {
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
		t.Errorf("compiler output drifted from golden:\n--- want\n%s--- got\n%s", want, got)
	}
}

// BenchmarkCompileC compiles the quick seed-1 samples' translation units:
// one op is all of them on one target.
func BenchmarkCompileC(b *testing.B) {
	srcs := sampleSources(b, 1, false)
	for _, tc := range compileTargets() {
		b.Run(tc.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range srcs {
					if _, err := tc.CompileC(src); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
