package lexer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"srcg/internal/asm"
	"srcg/internal/discovery"
)

func modelWith(prefix string) *discovery.Model {
	return &discovery.Model{
		LitPrefix: prefix,
		LitBases:  map[int]string{10: "", 16: "0x"},
		RegSet:    map[string]bool{"%eax": true, "%ebp": true, "%fp": true, "r0": true, "$sp": true},
	}
}

func TestParseLit(t *testing.T) {
	m := modelWith("$")
	cases := map[string]int64{"$5": 5, "$-42": -42, "$0x10": 16, "7": 7, "-7": -7}
	for s, want := range cases {
		got, ok := ParseLit(m, s)
		if !ok || got != want {
			t.Errorf("ParseLit(%q) = %d,%v want %d", s, got, ok, want)
		}
	}
	for _, s := range []string{"%eax", "L1", "", "$", "1x"} {
		if _, ok := ParseLit(m, s); ok {
			t.Errorf("ParseLit(%q) should fail", s)
		}
	}
}

// TestParseLitInt64Edges checks that literals at the int64 edges parse
// and that literals past them are rejected rather than wrapped.
func TestParseLitInt64Edges(t *testing.T) {
	m := modelWith("$")
	cases := map[string]int64{
		"$9223372036854775807": math.MaxInt64, "$-9223372036854775808": math.MinInt64,
		"0x7fffffffffffffff": math.MaxInt64, "-0x8000000000000000": math.MinInt64,
	}
	for s, want := range cases {
		if got, ok := ParseLit(m, s); !ok || got != want {
			t.Errorf("ParseLit(%q) = %d,%v want %d", s, got, ok, want)
		}
	}
	for _, s := range []string{
		"$9223372036854775808", "$-9223372036854775809",
		"18446744073709551617", "0x8000000000000000", "0x10000000000000001",
	} {
		if got, ok := ParseLit(m, s); ok {
			t.Errorf("ParseLit(%q) = %d, should fail", s, got)
		}
	}
}

func TestSubTokens(t *testing.T) {
	cases := map[string][]string{
		"-8(%ebp)": {"-8", "%ebp"},
		"[%fp-8]":  {"%fp", "-8"},
		"120($sp)": {"120", "$sp"},
		"$z1":      {"$z1"},
		"%eax":     {"%eax"},
		"(r0)":     {"r0"},
		"$-4097":   {"-4097"}, // the sigil alone is not a token
	}
	for in, want := range cases {
		toks := subTokens(in)
		var got []string
		for _, t := range toks {
			got = append(got, t.text)
		}
		if len(got) != len(want) {
			t.Errorf("subTokens(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("subTokens(%q) = %v, want %v", in, got, want)
			}
		}
	}
}

func TestClassifyOperandKinds(t *testing.T) {
	m := modelWith("$")
	labels := map[string]bool{"L1": true}
	cases := []struct {
		text string
		kind discovery.OperandKind
	}{
		{"%eax", discovery.KReg},
		{"$5", discovery.KLit},
		{"L1", discovery.KLabelRef},
		{"-8(%ebp)", discovery.KMem},
		{"[%fp-8]", discovery.KMem},
		{"z1", discovery.KSym},
	}
	for _, c := range cases {
		op := discovery.Operand{Text: c.text}
		classifyOperand(m, labels, &op)
		if op.Kind != c.kind {
			t.Errorf("classify(%q) = %v, want %v", c.text, op.Kind, c.kind)
		}
	}
}

func TestModeShapes(t *testing.T) {
	m := modelWith("")
	op := discovery.Operand{Text: "-8(%ebp)"}
	classifyOperand(m, nil, &op)
	if op.ModeShape != "⟨n⟩(⟨r⟩)" {
		t.Errorf("shape = %q", op.ModeShape)
	}
	op2 := discovery.Operand{Text: "[%fp-8]"}
	classifyOperand(m, nil, &op2)
	if op2.ModeShape != "[⟨r⟩⟨n⟩]" {
		t.Errorf("shape = %q", op2.ModeShape)
	}
}

// climbRef is climb as it stood before it probed the cap first: it
// re-asks accepts(0), doubles up from 1, and asks the cap only once the
// climb passes it. TestClimbMatchesReference holds climb to its answers.
func climbRef(accepts func(int64) bool, limit int64) int64 {
	if !accepts(0) {
		return 0
	}
	good := int64(0)
	step := int64(1)
	for good+step <= limit {
		if accepts(good + step) {
			good += step
			step *= 2
		} else {
			break
		}
	}
	if good+step > limit {
		if accepts(limit) {
			return limit
		}
	}
	bad := good + step
	if bad > limit {
		bad = limit + 1
	}
	for good+1 < bad {
		mid := good + (bad-good)/2
		if accepts(mid) {
			good = mid
		} else {
			bad = mid
		}
	}
	return good
}

// scriptedAsm is an assembler for one line, "\tli <v>", that accepts
// exactly the immediates in [lo, hi].
type scriptedAsm struct{ lo, hi int64 }

func (scriptedAsm) Name() string                         { return "scripted" }
func (scriptedAsm) CompileC(string) (string, error)      { return "", errors.New("no compiler") }
func (scriptedAsm) Link([]*asm.Unit) (*asm.Image, error) { return nil, errors.New("no linker") }
func (scriptedAsm) Execute(*asm.Image) (string, error)   { return "", errors.New("no machine") }
func (a scriptedAsm) Assemble(text string) (*asm.Unit, error) {
	v, err := strconv.ParseInt(strings.TrimPrefix(text, "\tli "), 10, 64)
	if err != nil || v < a.lo || v > a.hi {
		return nil, fmt.Errorf("rejected: %q", text)
	}
	return &asm.Unit{}, nil
}

// TestClimbMatchesReference runs probeRange against contiguous accept
// sets and holds its answer to the reference search's, in fewer or as
// many assemblies. Both searches assume the accept set is an interval: a
// set with a hole (0..9 and 16..limit) fools each of them, differently.
func TestClimbMatchesReference(t *testing.T) {
	const max32, min32 = 1<<31 - 1, -1 << 31
	sets := [][2]int64{{0, 0}, {0, 1}, {-1, 0}, {-4096, 4095}, {-32768, 32767}, {0, 255},
		{0, max32}, {-1 << 20, 0}, {min32, max32}, {min32, 0}, {-max32, max32 - 1}}
	for k := 1; k <= 30; k += 3 {
		p := int64(1) << k
		sets = append(sets, [2]int64{-p, p - 1}, [2]int64{-p - 1, p}, [2]int64{-p + 1, p + 1})
	}
	for _, set := range sets {
		rig := discovery.NewRig(scriptedAsm{set[0], set[1]})
		lo, hi, ok := probeRange(rig, &discovery.Model{}, []string{"\tli 5"}, 0, "5")
		probes := rig.Stats().Assemblies

		// The reference probeRange asked accepts(0) before either climb.
		refProbes := 1
		accepts := func(v int64) bool { refProbes++; return set[0] <= v && v <= set[1] }
		wantHi := climbRef(accepts, max32)
		wantLo := -climbRef(func(v int64) bool { return accepts(-v) }, -min32)
		if !ok || lo != wantLo || hi != wantHi || lo != set[0] || hi != set[1] {
			t.Errorf("accept set %v: probeRange = [%d,%d] %v, reference [%d,%d]", set, lo, hi, ok, wantLo, wantHi)
		}
		if probes > refProbes {
			t.Errorf("accept set %v: %d probes, reference %d", set, probes, refProbes)
		}
	}
	// A full-width immediate costs one probe for 0 and one per direction.
	rig := discovery.NewRig(scriptedAsm{min32, max32})
	probeRange(rig, &discovery.Model{}, []string{"\tli 5"}, 0, "5")
	if got := rig.Stats().Assemblies; got != 3 {
		t.Errorf("full-width range took %d probes, want 3", got)
	}
}

// TestProbeRangeRejectsZero pins the position that rejects 0: it reports
// [0,0] if it accepts 1 and nothing otherwise, after two probes.
func TestProbeRangeRejectsZero(t *testing.T) {
	for _, c := range []struct {
		lo   int64
		want bool
	}{{1, true}, {2, false}} {
		rig := discovery.NewRig(scriptedAsm{c.lo, 100})
		lo, hi, ok := probeRange(rig, &discovery.Model{}, []string{"\tli 5"}, 0, "5")
		if lo != 0 || hi != 0 || ok != c.want {
			t.Errorf("accept set [%d,100]: probeRange = [%d,%d] %v, want [0,0] %v", c.lo, lo, hi, ok, c.want)
		}
		if got := rig.Stats().Assemblies; got != 2 {
			t.Errorf("accept set [%d,100]: %d probes, want 2", c.lo, got)
		}
	}
}

func TestClimb(t *testing.T) {
	// Threshold acceptance: accepted iff v <= 4095.
	accepts := func(v int64) bool { return v <= 4095 }
	if got := climb(accepts, 1<<31-1); got != 4095 {
		t.Errorf("climb = %d, want 4095", got)
	}
	// Everything accepted: returns the limit.
	if got := climb(func(int64) bool { return true }, 1000); got != 1000 {
		t.Errorf("climb(all) = %d", got)
	}
	// Nothing accepted beyond 0.
	if got := climb(func(v int64) bool { return v == 0 }, 1000); got != 0 {
		t.Errorf("climb(none) = %d", got)
	}
}

// TestCandidatesSkipLabelSubTokens checks that a defined label keeps its
// sub-tokens out of the register candidates: ".L1:" defines the symbol a
// branch names as ".L1", whose sub-token is "L1".
func TestCandidatesSkipLabelSubTokens(t *testing.T) {
	m := modelWith("$")
	m.CommentChar = "#"
	text := "main:\n\tmovl $3, %eax\n.L1:\n\tdecl %eax\n\tjne .L1\n"
	got := collectCandidates(m, []string{text})
	if !slices.Equal(got, []string{"%eax"}) {
		t.Errorf("candidates = %v, want [%%eax]", got)
	}
}

func TestReplaceTokenBoundary(t *testing.T) {
	// The immediate-range probe replaces whole operand tokens ($-prefixed
	// on the x86/VAX).
	got, ok := replaceToken("\taddl $12, %esp", "$12", "$99")
	if !ok || got != "\taddl $99, %esp" {
		t.Errorf("replaceToken = %q, %v", got, ok)
	}
	// A bare "12" is part of the "$12" token and must not match.
	if _, ok := replaceToken("\taddl $12, %esp", "12", "99"); ok {
		t.Error("partial token replacement must fail")
	}
	// "12" inside "120" must not match either.
	if _, ok := replaceToken("\taddi r0, 120", "12", "99"); ok {
		t.Error("substring replacement must fail")
	}
}

func TestContainsToken(t *testing.T) {
	if !containsToken("mov 1235, r0", "1235") {
		t.Error("should find 1235")
	}
	if containsToken("mov 12350, r0", "1235") {
		t.Error("must not find 1235 inside 12350")
	}
}
