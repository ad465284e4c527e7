// Package gen implements the Generator of the discovery unit (paper §3):
// it produces small C code samples from templates parameterized on
// operation and operand shape, wraps them in the Fig. 3 anti-optimization
// harness (a separately compiled Init hides all values; Begin/End labels
// delimit the payload; printf defeats dead-code elimination), and chooses
// initialization values with a Monte-Carlo procedure so that no two
// plausible semantic interpretations of the payload produce the same
// output (§5.2.1).
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"srcg/internal/discovery"
)

// BinaryOps are the C integer operators the Generator samples.
var BinaryOps = []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}

// Shapes are the operand-shape templates of §3 (shown there for
// subtraction): every combination of the hidden variables a, b and an
// inline literal K.
var Shapes = []string{"b,c", "a,K", "b,a", "a,a", "b,b", "K,b", "b,K", "K,a"}

// Relations are the C comparison operators for conditional samples.
var Relations = []string{"==", "!=", "<", "<=", ">", ">="}

// Config controls sample generation.
type Config struct {
	Rand *rand.Rand
	// Full selects the complete §3 shape set; otherwise only the primary
	// "b,c" shape is generated (enough for semantic extraction, much
	// cheaper for tests).
	Full bool
	// NoVariants keeps each sample's base valuation only: Fig. 3's one
	// hidden Init, as the paper describes it (core.Options.NoVariants).
	NoVariants bool
}

// Harness renders the Fig. 3 main translation unit around a payload,
// with one addition: after printf, main loops back to Init while the
// initializer reports that valuations remain (more). Under a
// one-valuation initializer more stays 0 and the program is Fig. 3's;
// under one of two or more valuations (InitUnit) one execution runs the
// payload once per valuation.
// The loop sits outside Begin..End and main still ends in exit, so the
// compiled region is the same text either way.
func Harness(payload string) string {
	return `extern int z1,z2,z3,z4,z5,z6,more;
extern void Init();
main() {
	int a, b, c;
Again:
	Init(&a, &b, &c);
	if (z1) goto Begin;
	if (z2) goto End;
	if (z3) goto Begin;
	if (z4) goto End;
	if (z5) goto Begin;
	if (z6) goto End;
Begin:
	` + payload + `
End:
	printf("%i\n", a);
	if (more) goto Again;
	exit(0);
}`
}

// InitUnit renders the separately compiled initializer that hides the
// valuations' values a0, b, c from the compiler. With one valuation it is
// Fig. 3's Init: it defines more and leaves it 0, so the harness runs the
// payload once. With two or more it hands out one valuation per call, in
// order, and keeps more set while valuations remain: the harness then
// prints every valuation's output, in turn, in one execution. An if /
// else if chain picks the first valuation whose flag (donek) is still 0
// and sets it. Each test compares a flag with 0, which every target
// compiles without a register the branch's body does not overwrite.
func InitUnit(vals []discovery.Valuation) string {
	var sb strings.Builder
	sb.WriteString("int z1,z2,z3,z4,z5,z6,more")
	for k := range vals[1:] {
		fmt.Fprintf(&sb, ",done%d", k)
	}
	sb.WriteString(";\nvoid Init(n,o,p)\nint *n,*o,*p;\n{\n")
	if len(vals) == 1 {
		sb.WriteString(initBody("\t", vals[0]))
		sb.WriteString("}")
		return sb.String()
	}
	for k, v := range vals {
		switch k {
		case 0:
			sb.WriteString("\tif (done0 == 0) {\n\t\tdone0 = 1;\n\t\tmore = 1;\n")
		case len(vals) - 1:
			sb.WriteString("\t} else {\n\t\tmore = 0;\n")
		default:
			fmt.Fprintf(&sb, "\t} else if (done%d == 0) {\n\t\tdone%[1]d = 1;\n", k)
		}
		sb.WriteString(initBody("\t\t", v))
	}
	sb.WriteString("\t}\n}")
	return sb.String()
}

// initBody is the statement list of Fig. 3's Init under valuation v, each
// statement prefixed by indent. The batched initializer repeats it as the
// last statements of each branch, so Init returns with the registers it
// leaves behind as they are under the one-valuation unit.
func initBody(indent string, v discovery.Valuation) string {
	return fmt.Sprintf(`%[1]sz1=z2=z3=1;
%[1]sz4=z5=z6=1;
%[1]s*n = %[2]d;
%[1]s*o = %[3]d;
%[1]s*p = %[4]d;
`, indent, v.A0, v.B, v.C)
}

// HelperUnit is the translation unit of the procedures the call samples
// call. It is the same for every sample, so it is compiled once and
// linked beside the initializer.
const HelperUnit = `int P(int x)
{
	return x - 42;
}
int P2(int x, int y)
{
	return x - y - 17;
}
int P0()
{
	return 19;
}`

// Samples generates the full sample set.
func Samples(cfg Config) ([]*discovery.Sample, error) {
	g := &generator{cfg: cfg}
	var out []*discovery.Sample
	shapes := []string{"b,c"}
	if cfg.Full {
		shapes = Shapes
	}
	for _, op := range BinaryOps {
		for _, shape := range shapes {
			s, err := g.binary(op, shape)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
	}
	// Unary operators.
	for _, op := range []string{"-", "~"} {
		out = append(out, g.unary(op))
	}
	// Plain move and constants of several magnitudes (the literal-syntax
	// and load-literal probes).
	out = append(out, g.move())
	for _, k := range []int64{7, 1235, 34117, -4097} {
		out = append(out, g.constant(k))
	}
	// Conditionals: each relation in taken, not-taken, and equal flavors.
	for _, rel := range Relations {
		for _, flavor := range []string{"lt", "gt", "eq"} {
			out = append(out, g.cond(rel, flavor))
		}
	}
	// Calls: zero, one, and two arguments.
	out = append(out, g.call0(), g.call1(), g.call2())
	// Register pressure: a deeply nested expression forces the compiler to
	// reveal temporaries it never needs for flat samples.
	out = append(out, g.stress())
	return out, nil
}

type generator struct {
	cfg Config
}

// eval32 computes a C binary operation in int32 arithmetic.
func eval32(op string, x, y int64) (int64, bool) {
	a, b := int32(x), int32(y)
	switch op {
	case "+":
		return int64(a + b), true
	case "-":
		return int64(a - b), true
	case "*":
		return int64(a * b), true
	case "/":
		if b == 0 {
			return 0, false
		}
		return int64(a / b), true
	case "%":
		if b == 0 {
			return 0, false
		}
		return int64(a % b), true
	case "&":
		return int64(a & b), true
	case "|":
		return int64(a | b), true
	case "^":
		return int64(a ^ b), true
	case "<<":
		if b < 0 || b > 31 {
			return 0, false
		}
		return int64(a << b), true
	case ">>":
		if b < 0 || b > 31 {
			return 0, false
		}
		return int64(a >> b), true
	}
	return 0, false
}

// distinctFor reports whether values (x, y) make the result of `x op y`
// unambiguous: the result must differ from every *other* candidate
// operation applied to (x, y) in either order, and from x, y, 0, and ±1
// (§5.2.1: avoid b=2,c=1 where a=b*c is also explained by a=b/c or
// a=b+c-1). Results of the same operation with swapped operands are not
// compared — commutative operations are inherently order-symmetric.
func distinctFor(op string, x, y int64) bool {
	r, ok := eval32(op, x, y)
	if !ok {
		return false
	}
	if r == x || r == y || r == 0 || r == 1 || r == -1 {
		return false
	}
	for _, op2 := range BinaryOps {
		if op2 == op {
			continue
		}
		for _, pair := range [][2]int64{{x, y}, {y, x}} {
			if v, ok := eval32(op2, pair[0], pair[1]); ok && v == r {
				return false
			}
		}
	}
	return true
}

// choose picks Monte-Carlo initialization values for a binary operation.
func (g *generator) choose(op string) (b, c int64) {
	r := g.cfg.Rand
	for i := 0; i < 10000; i++ {
		switch op {
		case "<<", ">>":
			b = int64(r.Intn(40000) + 100)
			c = int64(r.Intn(14) + 3)
		case "/", "%":
			// Make the quotient and remainder both interesting.
			c = int64(r.Intn(400) + 7)
			q := int64(r.Intn(300) + 5)
			rem := int64(r.Intn(int(c)-1) + 1)
			b = c*q + rem
		default:
			b = int64(r.Intn(60000) + 50)
			c = int64(r.Intn(900) + 7)
			if r.Intn(4) == 0 {
				c = -c
			}
		}
		if distinctFor(op, b, c) {
			return b, c
		}
	}
	// The constraint loop essentially never exhausts; fall back to the
	// paper's own example values.
	return 313, 109
}

// a0 picks an initial value for `a` distinct from the expected result.
func (g *generator) a0(avoid ...int64) int64 {
	r := g.cfg.Rand
	for {
		v := int64(r.Intn(90000) + 100)
		ok := true
		for _, x := range avoid {
			if v == x {
				ok = false
			}
		}
		if ok {
			return v
		}
	}
}

// binary builds `a = x OP y` for the given shape. Values are assigned by
// operand *position* (the second position is a shift count or divisor when
// the operation requires it), then mapped back onto the variables the
// shape mentions.
func (g *generator) binary(op, shape string) (*discovery.Sample, error) {
	parts := strings.Split(shape, ",")
	same := parts[0] == parts[1]
	var v1, v2 int64
	if same {
		// One value plays both roles; keep it valid as a shift count.
		switch op {
		case "<<", ">>":
			v1 = int64(g.cfg.Rand.Intn(7) + 3)
		default:
			v1 = int64(g.cfg.Rand.Intn(900) + 55)
		}
		v2 = v1
	} else {
		v1, v2 = g.choose(op)
	}
	vals := map[string]int64{parts[0]: v1, parts[1]: v2}
	expect, ok := eval32(op, v1, v2)
	if !ok {
		return nil, fmt.Errorf("gen: cannot evaluate %d %s %d", v1, op, v2)
	}
	// Variables not mentioned by the shape still get (distinct) hidden
	// values — the harness always initializes all three.
	a0, hasA := vals["a"]
	if !hasA {
		a0 = g.a0(v1, v2, expect)
	}
	b, hasB := vals["b"]
	if !hasB {
		b = g.a0(v1, v2, expect, a0)
	}
	c, hasC := vals["c"]
	if !hasC {
		c = g.a0(v1, v2, expect, a0, b)
	}
	k := vals["K"] // zero if the shape has no literal

	text := func(part string) string {
		if part == "K" {
			return fmt.Sprintf("%d", k)
		}
		return part
	}
	payload := fmt.Sprintf("a = %s %s %s;", text(parts[0]), op, text(parts[1]))
	s := &discovery.Sample{
		Name:    fmt.Sprintf("int.%s.%s", opName(op), strings.ReplaceAll(shape, ",", "_")),
		Kind:    discovery.PBinary,
		COp:     op,
		Payload: payload,
		Shape:   shape,
		K:       k,
	}
	g.finish(s, discovery.Valuation{A0: a0, B: b, C: c, Expect: expect})
	return s, nil
}

func (g *generator) unary(op string) *discovery.Sample {
	b, c := g.choose("+")
	a0 := g.a0(b, c)
	var expect int64
	if op == "-" {
		expect = int64(-int32(b))
	} else {
		expect = int64(^int32(b))
	}
	s := &discovery.Sample{
		Name:    "int." + opName(op+"u") + ".b",
		Kind:    discovery.PUnary,
		COp:     op,
		Payload: fmt.Sprintf("a = %sb;", op),
		Shape:   "b",
	}
	g.finish(s, discovery.Valuation{A0: a0, B: b, C: c, Expect: expect})
	return s
}

func (g *generator) move() *discovery.Sample {
	b, c := g.choose("+")
	a0 := g.a0(b, c)
	s := &discovery.Sample{
		Name:    "int.move.b",
		Kind:    discovery.PUnary,
		COp:     "",
		Payload: "a = b;",
		Shape:   "b",
	}
	g.finish(s, discovery.Valuation{A0: a0, B: b, C: c, Expect: b})
	return s
}

func (g *generator) constant(k int64) *discovery.Sample {
	b, c := g.choose("+")
	a0 := g.a0(b, c, k)
	s := &discovery.Sample{
		Name:    fmt.Sprintf("int.const.%d", k),
		Kind:    discovery.PConst,
		Payload: fmt.Sprintf("a = %d;", k),
		Shape:   "K",
		K:       k,
	}
	g.finish(s, discovery.Valuation{A0: a0, B: b, C: c, Expect: k})
	return s
}

// cond builds `if (b REL c) a = K;` with the operand relationship selected
// by flavor ("lt": b<c, "gt": b>c, "eq": b==c).
func (g *generator) cond(rel, flavor string) *discovery.Sample {
	r := g.cfg.Rand
	var b, c int64
	for {
		b = int64(r.Intn(50000) + 100)
		switch flavor {
		case "lt":
			c = b + int64(r.Intn(5000)+3)
		case "gt":
			c = b - int64(r.Intn(5000)+3)
		default:
			c = b
		}
		if flavor == "eq" || distinctFor("-", b, c) {
			break
		}
	}
	k := int64(r.Intn(40000) + 77)
	a0 := g.a0(b, c, k)
	taken := false
	switch rel {
	case "==":
		taken = b == c
	case "!=":
		taken = b != c
	case "<":
		taken = b < c
	case "<=":
		taken = b <= c
	case ">":
		taken = b > c
	case ">=":
		taken = b >= c
	}
	expect := a0
	if taken {
		expect = k
	}
	s := &discovery.Sample{
		Name:    fmt.Sprintf("int.cond.%s.%s", relName(rel), flavor),
		Kind:    discovery.PCond,
		COp:     rel,
		Payload: fmt.Sprintf("if (b %s c) a = %d;", rel, k),
		Shape:   "b,c",
		K:       k,
	}
	g.finish(s, discovery.Valuation{A0: a0, B: b, C: c, Expect: expect})
	return s
}

func (g *generator) call0() *discovery.Sample {
	b, c := g.choose("+")
	a0 := g.a0(b, c, 19)
	s := &discovery.Sample{
		Name:    "int.call.none",
		Kind:    discovery.PCall,
		Payload: "a = P0();",
		Shape:   "",
	}
	g.finish(s, discovery.Valuation{A0: a0, B: b, C: c, Expect: 19})
	return s
}

func (g *generator) call1() *discovery.Sample {
	b, c := g.choose("+")
	a0 := g.a0(b, c)
	s := &discovery.Sample{
		Name:    "int.call.b",
		Kind:    discovery.PCall,
		Payload: "a = P(b);",
		Shape:   "b",
	}
	g.finish(s, discovery.Valuation{A0: a0, B: b, C: c, Expect: int64(int32(b) - 42)})
	return s
}

func (g *generator) call2() *discovery.Sample {
	b, c := g.choose("-")
	a0 := g.a0(b, c)
	s := &discovery.Sample{
		Name:    "int.call.b_c",
		Kind:    discovery.PCall,
		Payload: "a = P2(b, c);",
		Shape:   "b,c",
	}
	g.finish(s, discovery.Valuation{A0: a0, B: b, C: c, Expect: int64(int32(b) - int32(c) - 17)})
	return s
}

// stress builds a nested expression that exercises many registers. The
// Extractor is expected to discard it (too complex); it exists so the
// Lexer sees the full temporary register set.
func (g *generator) stress() *discovery.Sample {
	b, c := g.choose("+")
	a0 := g.a0(b, c)
	x, y := int32(b), int32(c)
	expect := int64((x + y) + ((x - y) + ((x & y) + ((x | y) + (x ^ y)))))
	s := &discovery.Sample{
		Name:    "int.stress",
		Kind:    discovery.PStress,
		Payload: "a = (b + c) + ((b - c) + ((b & c) + ((b | c) + (b ^ c))));",
		Shape:   "b,c",
	}
	g.finish(s, discovery.Valuation{A0: a0, B: b, C: c, Expect: expect})
	return s
}

// finish renders the C sources around base and attaches two extra
// valuations (variants) of the hidden values. Mutation analysis requires
// every verdict to hold under all valuations, which keeps instructions
// that are dead under one valuation (an untaken branch's store) from being
// eliminated, and starves value-symmetric misinterpretations in the
// Extractor. Under NoVariants the variants are drawn and then dropped, so
// the random stream, and every later sample, stay those of a run with
// them. finish then fills every valuation's expected stdout and renders
// the sample's one initializer, which runs all its valuations in one
// execution.
func (g *generator) finish(s *discovery.Sample, base discovery.Valuation) {
	s.CSource = Harness(s.Payload)
	s.HelperSource = HelperUnit
	s.Vals = []discovery.Valuation{base}
	g.addVariants(s)
	if g.cfg.NoVariants {
		s.Vals = s.Vals[:1]
	}
	var out strings.Builder
	for i := range s.Vals {
		s.Vals[i].ExpectedOut = fmt.Sprintf("%d\n", int32(s.Vals[i].Expect))
		out.WriteString(s.Vals[i].ExpectedOut)
	}
	s.InitSource, s.ExpectedOut = InitUnit(s.Vals), out.String()
}

// addVariants appends further valuations appropriate to the sample's
// kind: two, or three for a conditional, none for the stress sample.
func (g *generator) addVariants(s *discovery.Sample) {
	add := func(a0, b, c, expect int64) {
		s.Vals = append(s.Vals, discovery.Valuation{A0: a0, B: b, C: c, Expect: expect})
	}
	switch s.Kind {
	case discovery.PBinary:
		parts := strings.Split(s.Shape, ",")
		for n := 0; n < 2; n++ {
			v1, v2, ok := g.variantValues(s.COp, parts, s.K, n == 1)
			if !ok {
				continue
			}
			vals := map[string]int64{parts[0]: v1, parts[1]: v2}
			expect, ok := eval32(s.COp, v1, v2)
			if !ok {
				continue
			}
			a0, hasA := vals["a"]
			if !hasA {
				a0 = g.a0(v1, v2, expect)
			}
			b, hasB := vals["b"]
			if !hasB {
				b = g.a0(v1, v2, expect, a0)
			}
			c, hasC := vals["c"]
			if !hasC {
				c = g.a0(v1, v2, expect, a0, b)
			}
			add(a0, b, c, expect)
		}
	case discovery.PUnary:
		for n := 0; n < 2; n++ {
			b, c := g.choose("+")
			var expect int64
			switch s.COp {
			case "-":
				expect = int64(-int32(b))
			case "~":
				expect = int64(^int32(b))
			default:
				expect = b
			}
			add(g.a0(b, c, expect), b, c, expect)
		}
	case discovery.PConst:
		for n := 0; n < 2; n++ {
			b, c := g.choose("+")
			add(g.a0(b, c, s.K), b, c, s.K)
		}
	case discovery.PCond:
		// Cover the other branch directions: the store that is dead under
		// the base valuation is alive here.
		for _, flavor := range []string{"lt", "gt", "eq"} {
			b, c := g.condValues(flavor)
			a0 := g.a0(b, c, s.K)
			expect := a0
			if relHolds(s.COp, b, c) {
				expect = s.K
			}
			add(a0, b, c, expect)
		}
	case discovery.PCall:
		for n := 0; n < 2; n++ {
			b, c := g.choose("-")
			var expect int64
			switch {
			case strings.Contains(s.Payload, "P2"):
				expect = int64(int32(b) - int32(c) - 17)
			case strings.Contains(s.Payload, "P0"):
				expect = 19
			default:
				expect = int64(int32(b) - 42)
			}
			add(g.a0(b, c, expect), b, c, expect)
		}
	}
}

// variantValues picks fresh values for a binary payload, respecting a
// literal burned into the code (the K part keeps its value) and, when
// negDividend is set for division, exercising a negative dividend (the
// sign-extension idiom of cltd is invisible on positive values).
func (g *generator) variantValues(op string, parts []string, k int64, negDividend bool) (int64, int64, bool) {
	same := parts[0] == parts[1]
	for i := 0; i < 2000; i++ {
		var v1, v2 int64
		if same {
			switch op {
			case "<<", ">>":
				v1 = int64(g.cfg.Rand.Intn(7) + 3)
			default:
				v1 = int64(g.cfg.Rand.Intn(900) + 55)
			}
			v2 = v1
		} else {
			v1, v2 = g.choose(op)
		}
		if parts[0] == "K" {
			v1 = k
		}
		if parts[1] == "K" {
			v2 = k
		}
		if negDividend && (op == "/" || op == "%") && parts[0] != "K" {
			// The negative-dividend variant pins sign-dependent semantics
			// (x86 cltd). The fixed literal or the negation itself may
			// make full distinctness unattainable, so only the weak
			// degeneracy check applies: the result must not collapse to a
			// trivial value that other interpretations produce too.
			v1 = -v1
			if same {
				v2 = v1 // one variable holds one value
			}
			r, ok := eval32(op, v1, v2)
			if ok && r != 0 && r != 1 && r != -1 && r != v1 && r != v2 {
				return v1, v2, true
			}
			continue
		}
		if _, ok := eval32(op, v1, v2); !ok {
			continue
		}
		// Same-variable shapes (a = b - b) can never be distinctive — the
		// variants exist precisely so the pipeline can *observe* that the
		// expected output never varies and discard the sample.
		if same {
			return v1, v2, true
		}
		// The K overrides are applied before this check, so a variant
		// pairing the fixed literal with a degenerate partner (a divisor
		// of K makes K%b zero) rerolls until the result is distinctive.
		if distinctFor(op, v1, v2) {
			return v1, v2, true
		}
	}
	return 0, 0, false
}

// condValues picks (b, c) for a given branch flavor.
func (g *generator) condValues(flavor string) (int64, int64) {
	r := g.cfg.Rand
	b := int64(r.Intn(50000) + 100)
	switch flavor {
	case "lt":
		return b, b + int64(r.Intn(5000)+3)
	case "gt":
		return b, b - int64(r.Intn(5000)+3)
	default:
		return b, b
	}
}

func relHolds(rel string, b, c int64) bool {
	switch rel {
	case "==":
		return b == c
	case "!=":
		return b != c
	case "<":
		return b < c
	case "<=":
		return b <= c
	case ">":
		return b > c
	default:
		return b >= c
	}
}

func opName(op string) string {
	names := map[string]string{
		"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
		"&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr",
		"-u": "neg", "~u": "not",
	}
	return names[op]
}

func relName(rel string) string {
	names := map[string]string{
		"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
	}
	return names[rel]
}
