package dfg

import (
	"math/rand"
	"strings"
	"testing"

	"srcg/internal/discovery"
	"srcg/internal/gen"
	"srcg/internal/lexer"
	"srcg/internal/mutate"
	"srcg/internal/target"
	"srcg/internal/target/mips"
	"srcg/internal/target/x86"
)

// pipeline builds the graph of one sample on a real simulated target.
func pipeline(t *testing.T, tc target.Toolchain, name string) (*discovery.Model, *Graph) {
	t.Helper()
	rig := discovery.NewRig(tc)
	samples, err := gen.Samples(gen.Config{Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	model, err := lexer.Bootstrap(rig, samples)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := BindSlots(samples)
	if err != nil {
		t.Fatal(err)
	}
	engine := mutate.New(rig, model, rand.New(rand.NewSource(6)))
	var a *mutate.Analysis
	for _, s := range samples {
		if s.Name == name {
			if a, err = engine.Analyze(s); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
		}
	}
	g, err := Build(model, a, slots)
	if err != nil {
		t.Fatal(err)
	}
	return model, g
}

// TestX86DivisionGraph reproduces Fig. 10(d): the implicit arguments to
// cltd and idivl are explicit in the graph.
func TestX86DivisionGraph(t *testing.T) {
	_, g := pipeline(t, x86.New(), "int.div.b_c")
	var idiv *Step
	for i := range g.Steps {
		if strings.HasPrefix(g.Steps[i].Sig, "idivl") {
			idiv = &g.Steps[i]
		}
	}
	if idiv == nil {
		t.Fatalf("no idivl step:\n%s", g.Dump())
	}
	keys := map[string]bool{}
	for _, p := range idiv.Ins {
		keys[p.Key()] = true
	}
	if !keys["r%eax"] || !keys["r%edx"] {
		t.Errorf("idivl implicit inputs missing: %v\n%s", keys, g.Dump())
	}
	outKeys := map[string]bool{}
	for _, p := range idiv.Outs {
		outKeys[p.Key()] = true
	}
	if !outKeys["r%eax"] {
		t.Errorf("idivl implicit quotient output missing: %v", outKeys)
	}
}

// TestMIPSHiddenGraph reproduces Fig. 10(a)'s hidden flow for division:
// div feeds mflo through a hidden port keyed by consumer.
func TestMIPSHiddenGraph(t *testing.T) {
	_, g := pipeline(t, mips.New(), "int.div.b_c")
	var div, mflo *Step
	for i := range g.Steps {
		switch g.Steps[i].Instr.Op {
		case "div":
			div = &g.Steps[i]
		case "mflo":
			mflo = &g.Steps[i]
		}
	}
	if div == nil || mflo == nil {
		t.Fatalf("missing div/mflo:\n%s", g.Dump())
	}
	var hiddenOut bool
	for _, p := range div.Outs {
		if p.Kind == PHidden && p.Key() == "h.mflo" {
			hiddenOut = true
		}
	}
	if !hiddenOut {
		t.Errorf("div lacks hidden output for mflo:\n%s", g.Dump())
	}
	var wired bool
	for _, p := range mflo.Ins {
		if p.Kind == PHidden && p.Producer >= 0 && g.Steps[p.Producer].Instr.Op == "div" {
			wired = true
		}
	}
	if !wired {
		t.Errorf("mflo not wired to div:\n%s", g.Dump())
	}
}

func TestDeps(t *testing.T) {
	_, g := pipeline(t, x86.New(), "int.add.b_c")
	deps := g.Deps()
	last := deps[len(g.Steps)-1]
	if !last["b"] || !last["c"] {
		t.Errorf("store step must depend on b and c: %v\n%s", last, g.Dump())
	}
	first := deps[0]
	if first["c"] {
		t.Errorf("first load must not depend on c: %v", first)
	}
}

func TestNormalizeAddr(t *testing.T) {
	cases := map[string]string{
		"[%fp-8]":  "%fp-8",
		"[%fp+-8]": "%fp-8",
		"-8(%ebp)": "-8(%ebp)",
		" 8($sp) ": "8($sp)",
	}
	for in, want := range cases {
		if got := NormalizeAddr(in); got != want {
			t.Errorf("NormalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPortKeys(t *testing.T) {
	if (Port{ArgIdx: 2}).Key() != "a2" {
		t.Error("explicit key")
	}
	if (Port{Kind: PReg, Reg: "%eax", ArgIdx: -1}).Key() != "r%eax" {
		t.Error("implicit key")
	}
	if (Port{Kind: PHidden, ArgIdx: -1}).Key() != "h" {
		t.Error("hidden key")
	}
	if (Port{Kind: PHidden, ArgIdx: -1, KeyName: "h.mflo"}).Key() != "h.mflo" {
		t.Error("named hidden key")
	}
}

func TestDot(t *testing.T) {
	_, g := pipeline(t, x86.New(), "int.div.b_c")
	dot := g.Dot()
	for _, want := range []string{"digraph", "@L1.b", "@L1.a", "idivl"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}
