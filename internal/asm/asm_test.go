package asm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitLine(t *testing.T) {
	syn := Syntax{CommentChars: []string{"#"}, LabelSuffix: ":"}
	cases := []struct {
		raw   string
		label string
		op    string
		args  []string
	}{
		{"\tmovl $5, %eax", "", "movl", []string{"$5", "%eax"}},
		{"L1: addl %ebx, %eax # comment", "L1", "addl", []string{"%ebx", "%eax"}},
		{"main:", "main", "", nil},
		{"   ", "", "", nil},
		{"# only a comment", "", "", nil},
		{"\tret", "", "ret", nil},
		{".globl main", "", ".globl", []string{"main"}},
	}
	for _, c := range cases {
		l, err := syn.SplitLine(1, c.raw)
		if err != nil {
			t.Errorf("SplitLine(%q): %v", c.raw, err)
			continue
		}
		if l.Label != c.label || l.Op != c.op {
			t.Errorf("SplitLine(%q) = label %q op %q, want %q %q", c.raw, l.Label, l.Op, c.label, c.op)
		}
		if strings.Join(l.Args, "|") != strings.Join(c.args, "|") {
			t.Errorf("SplitLine(%q) args = %v, want %v", c.raw, l.Args, c.args)
		}
	}
}

func TestSplitLineSPARCBrackets(t *testing.T) {
	syn := Syntax{CommentChars: []string{"!"}, LabelSuffix: ":"}
	l, err := syn.SplitLine(1, "\tst %o0, [%fp-8] ! spill")
	if err != nil {
		t.Fatal(err)
	}
	if l.Op != "st" || len(l.Args) != 2 || l.Args[1] != "[%fp-8]" {
		t.Errorf("split = %+v", l)
	}
	if l.Comment != "spill" {
		t.Errorf("comment = %q", l.Comment)
	}
}

func TestParseInt(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "1235": 1235, "-42": -42, "+7": 7,
		"0x4d3": 1235, "0X4D3": 1235, "02323": 1235, "-0x10": -16,
		"9223372036854775807": math.MaxInt64, "-9223372036854775808": math.MinInt64,
		"0x7fffffffffffffff": math.MaxInt64, "-0x8000000000000000": math.MinInt64,
		"0777777777777777777777": math.MaxInt64,
	}
	for s, want := range cases {
		got, ok := ParseInt(s)
		if !ok || got != want {
			t.Errorf("ParseInt(%q) = %d,%v want %d", s, got, ok, want)
		}
	}
	for _, s := range []string{"", "-", "0x", "12a", "08", "x", "1_0",
		// Past int64 in either direction: these used to wrap silently.
		"9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551617", "-18446744073709551617",
		"0x8000000000000000", "0x10000000000000001", "01000000000000000000000",
	} {
		if _, ok := ParseInt(s); ok {
			t.Errorf("ParseInt(%q) should fail", s)
		}
	}
}

func TestParseIntQuick(t *testing.T) {
	// Decimal rendering of any int64 parses back to itself.
	f := func(v int64) bool {
		got, ok := ParseInt(itoa(v))
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	if v < 0 {
		// Avoid overflow on MinInt64 by building digit-wise.
		if v == -9223372036854775808 {
			return "-9223372036854775808"
		}
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

func TestStringEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		// Restrict to byte strings (our assembler strings are bytes).
		b := []byte(s)
		got, err := unescape(EscapeString(string(b)))
		return err == nil && got == string(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mkUnit(instrs []Instr, globals []string) *Unit {
	return &Unit{Arch: "t", Instrs: instrs, Globals: globals,
		Strings: map[string]string{}, Aliases: map[string]string{}}
}

func TestLinkRenamesLocalLabels(t *testing.T) {
	u1 := mkUnit([]Instr{
		{Label: "main", Op: "jmp", Args: []Arg{{Kind: Sym, Sym: "L1"}}},
		{Label: "L1", Op: "ret"},
	}, []string{"main"})
	u2 := mkUnit([]Instr{
		{Label: "P", Op: "jmp", Args: []Arg{{Kind: Sym, Sym: "L1"}}},
		{Label: "L1", Op: "ret"},
	}, []string{"P"})
	img, err := Link("t", 4, []*Unit{u1, u2})
	if err != nil {
		t.Fatal(err)
	}
	if img.Instrs[0].Args[0].Sym == img.Instrs[2].Args[0].Sym {
		t.Error("local labels from different units must not collide")
	}
	if _, ok := img.Labels["main"]; !ok {
		t.Error("exported label lost")
	}
}

func TestLinkDuplicateGlobals(t *testing.T) {
	u1 := mkUnit([]Instr{{Label: "main", Op: "ret"}}, []string{"main"})
	u2 := mkUnit([]Instr{{Label: "main", Op: "ret"}}, []string{"main"})
	if _, err := Link("t", 4, []*Unit{u1, u2}); err == nil {
		t.Error("duplicate exported label must fail")
	}
}

func TestLinkDataLayout(t *testing.T) {
	u := mkUnit([]Instr{{Label: "main", Op: "ret"}}, []string{"main"})
	u.Comm = []string{"z1", "z2"}
	u.Globals = append(u.Globals, "z1", "z2")
	u.Strings[".str1"] = "%i\n"
	img, err := Link("t", 4, []*Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	if img.Symbols["z2"]-img.Symbols["z1"] != 4 {
		t.Errorf("comm layout: %v", img.Symbols)
	}
	strAddr, ok := img.Resolve("u0$.str1")
	if !ok {
		t.Fatalf("string symbol missing: %v", img.Symbols)
	}
	if img.Data[strAddr] != '%' || img.Data[strAddr+3] != 0 {
		t.Errorf("string bytes wrong at %#x", strAddr)
	}
	if img.DataEnd <= strAddr {
		t.Errorf("DataEnd %#x not past string %#x", img.DataEnd, strAddr)
	}
}

func TestLinkAliases(t *testing.T) {
	u := mkUnit([]Instr{
		{Label: "main", Op: "jmp", Args: []Arg{{Kind: Sym, Sym: "L2"}}},
		{Label: "L1", Op: "ret"},
	}, []string{"main"})
	u.Aliases["L2"] = "L1"
	img, err := Link("t", 4, []*Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	if img.Labels["u0$L2"] != img.Labels["u0$L1"] {
		t.Errorf("alias index mismatch: %v", img.Labels)
	}
}

func TestCheckUndefined(t *testing.T) {
	u := mkUnit([]Instr{
		{Label: "main", Op: "call", Args: []Arg{{Kind: Sym, Sym: "missing"}}},
	}, []string{"main"})
	img, err := Link("t", 4, []*Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	if err := img.CheckUndefined(); err == nil {
		t.Error("undefined symbol must be reported")
	}
	u2 := mkUnit([]Instr{
		{Label: "main", Op: "call", Args: []Arg{{Kind: Sym, Sym: "printf"}}},
	}, []string{"main"})
	img2, _ := Link("t", 4, []*Unit{u2})
	if err := img2.CheckUndefined(); err != nil {
		t.Errorf("builtins must resolve: %v", err)
	}
}

func TestDialectConsecutiveLabels(t *testing.T) {
	d := Dialect{Arch: "t", Syntax: Syntax{CommentChars: []string{"#"}, LabelSuffix: ":"},
		Ops: map[string]Shape{"nop": {}}}
	u, err := d.ParseUnit("L1:\nL2:\n\tnop\nL3:\n")
	if err != nil {
		t.Fatal(err)
	}
	if u.Instrs[0].Label != "L1" || u.Aliases["L2"] != "L1" {
		t.Errorf("labels: %+v aliases: %v", u.Instrs, u.Aliases)
	}
	if u.Aliases["L3"] != "$end" {
		t.Errorf("trailing label: %v", u.Aliases)
	}
}

// TestDecodeWalksOperandTable checks the shared decoder on a toy dialect:
// arity and unknown-opcode errors, exact-length Args (nil for no
// operands), and checks that run in list order as soon as their operand
// is decoded — so a later slot's parse error can beat an earlier
// operand's check.
func TestDecodeWalksOperandTable(t *testing.T) {
	d := &Dialect{Arch: "t", Syntax: Syntax{CommentChars: []string{"#"}, LabelSuffix: ":"},
		Registers: map[string]bool{"r1": true},
		Ops: Table(map[string]Shape{
			"nop": {},
			"mov": {Args: []Operand{ImmOrSym, Register}},
			"lea": {Args: []Operand{ImmOrSym, ImmOrSym}, Checks: []Check{
				{Arg: 1, Want: ClassSym, Msg: "%s wants a symbol second"},
				{Arg: 0, Want: ClassImm, Msg: "%s wants an immediate first"}}},
		})}
	cases := map[string]string{
		"zap":        `t-as:1: unknown opcode "zap"`,
		"nop r1":     "t-as:1: nop takes 0 operands, got 1",
		"mov 1, r2":  `t-as:1: unknown register "r2"`,
		"lea x, ?":   `t-as:1: bad lea source "?"`,
		"lea x, 2":   "t-as:1: lea wants a symbol second",
		"lea x, y":   "t-as:1: lea wants an immediate first",
		"lea 1, y":   "",
		"mov x, r1":  "",
		"nop # note": "",
	}
	for line, want := range cases {
		u, err := d.ParseUnit(line)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != want {
			t.Errorf("%q: error %q, want %q", line, got, want)
			continue
		}
		if err != nil {
			continue
		}
		if args := u.Instrs[0].Args; len(args) != cap(args) || (len(args) == 0) != (args == nil) {
			t.Errorf("%q: Args len %d cap %d nil %v", line, len(args), cap(args), args == nil)
		}
	}
}
