package lexer

import (
	"math"
	"testing"

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
