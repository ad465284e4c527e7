package extract

import (
	"testing"

	"srcg/internal/dfg"
	"srcg/internal/discovery"
	"srcg/internal/obs"
	"srcg/internal/sem"
)

// synthetic graph builders --------------------------------------------------

func sample(name string, kind discovery.PayloadKind, op, shape string, a0, b, c, expect int64) *discovery.Sample {
	// One extra valuation keeps value-symmetric misreadings out.
	return &discovery.Sample{Name: name, Kind: kind, COp: op, Shape: shape,
		Vals: []discovery.Valuation{{A0: a0, B: b, C: c, Expect: expect},
			{A0: a0 + 11, B: b + 7, C: c + 3, Expect: reeval(op, kind, b+7, c+3)}}}
}

func reeval(op string, kind discovery.PayloadKind, b, c int64) int64 {
	switch kind {
	case discovery.PUnary:
		if op == "-" {
			return int64(-int32(b))
		}
		return b
	}
	switch op {
	case "+":
		return int64(int32(b) + int32(c))
	case "*":
		return int64(int32(b) * int32(c))
	}
	return b
}

func regPort(reg string, arg, producer int) dfg.Port {
	return dfg.Port{Kind: dfg.PReg, Reg: reg, ArgIdx: arg, Producer: producer}
}

func memPort(addr string, arg int) dfg.Port {
	return dfg.Port{Kind: dfg.PMem, Addr: addr, ArgIdx: arg, Producer: -1}
}

// moveGraph models x86 `a = b`: load b into a register, store it.
func moveGraph() *dfg.Graph {
	return &dfg.Graph{
		Sample: sample("move", discovery.PUnary, "", "b", 5, 77, 3, 77),
		Labels: map[string]int{}, SlotA: "A", SlotB: "B", SlotC: "C",
		Steps: []dfg.Step{
			{Sig: "movl:mem,reg",
				Ins:  []dfg.Port{memPort("B", 0)},
				Outs: []dfg.Port{regPort("%edx", 1, -1)}},
			{Sig: "movl:reg,mem",
				Ins:  []dfg.Port{regPort("%edx", 0, 0), memPort("A", 1)},
				Outs: []dfg.Port{memPort("A", 1)}},
		},
	}
}

// addGraph models x86 `a = b + c` with a two-address add.
func addGraph() *dfg.Graph {
	return &dfg.Graph{
		Sample: sample("add", discovery.PBinary, "+", "b,c", 9, 313, 109, 422),
		Labels: map[string]int{}, SlotA: "A", SlotB: "B", SlotC: "C",
		Steps: []dfg.Step{
			{Sig: "movl:mem,reg",
				Ins:  []dfg.Port{memPort("B", 0)},
				Outs: []dfg.Port{regPort("%edx", 1, -1)}},
			{Sig: "addl:mem,reg",
				Ins:  []dfg.Port{memPort("C", 0), regPort("%edx", 1, 0)},
				Outs: []dfg.Port{regPort("%edx", 1, -1)}},
			{Sig: "movl:reg,mem",
				Ins:  []dfg.Port{regPort("%edx", 0, 1), memPort("A", 1)},
				Outs: []dfg.Port{memPort("A", 1)}},
		},
	}
}

// condGraph models a compare/branch pair guarding a store (taken: b<c).
func condGraph(b, c, a0, k int64) *dfg.Graph {
	expect := k
	if b < c { // branch skips the store when b<c (negated relation)
		expect = a0
	}
	s := &discovery.Sample{Name: "cond", Kind: discovery.PCond, COp: ">=", K: k,
		Vals: []discovery.Valuation{{A0: a0, B: b, C: c, Expect: expect}}}
	return &dfg.Graph{
		Sample: s,
		Labels: map[string]int{"L": 4},
		SlotA:  "A", SlotB: "B", SlotC: "C",
		Steps: []dfg.Step{
			{Sig: "movl:mem,reg",
				Ins:  []dfg.Port{memPort("B", 0)},
				Outs: []dfg.Port{regPort("%edx", 1, -1)}},
			{Sig: "cmpl:mem,reg",
				Ins:  []dfg.Port{memPort("C", 0), regPort("%edx", 1, 0)},
				Outs: []dfg.Port{{Kind: dfg.PHidden, Tag: "cc", ArgIdx: -1, Producer: -1, KeyName: "h.jl"}}},
			{Sig: "jl:label", Target: "L",
				Ins: []dfg.Port{{Kind: dfg.PHidden, Tag: "cc", ArgIdx: -1, Producer: 1, KeyName: "h"}}},
			{Sig: "movl:lit,mem",
				Ins:  []dfg.Port{{Kind: dfg.PLit, Lit: k, ArgIdx: 0, Producer: -1}, memPort("A", 1)},
				Outs: []dfg.Port{memPort("A", 1)}},
		},
	}
}

// ----------------------------------------------------------------------------

func TestRunWithKnownSemantics(t *testing.T) {
	sems := map[string]*sem.Sem{
		"movl:mem,reg": {Outs: map[string]*sem.Tree{"a1": sem.Load(sem.Arg("a0"))}},
		"movl:reg,mem": {Outs: map[string]*sem.Tree{"a1": sem.Arg("a0")}},
	}
	ok, err := Run(moveGraph(), sems, 32)
	if !ok || err != nil {
		t.Fatalf("Run = %v, %v", ok, err)
	}
	// A wrong interpretation must be rejected.
	sems["movl:reg,mem"] = &sem.Sem{Outs: map[string]*sem.Tree{"a1": sem.Un(sem.PNeg, sem.Arg("a0"))}}
	ok, err = Run(moveGraph(), sems, 32)
	if ok || err != nil {
		t.Fatalf("negated store accepted: %v %v", ok, err)
	}
}

func TestRunUnknownSig(t *testing.T) {
	_, err := Run(moveGraph(), map[string]*sem.Sem{}, 32)
	if _, isUnknown := err.(*ErrUnknown); !isUnknown {
		t.Fatalf("err = %v, want ErrUnknown", err)
	}
}

func TestSolveMoveAndAdd(t *testing.T) {
	x := New(32, DefaultWeights, nil)
	out := x.SolveAll([]*dfg.Graph{moveGraph(), addGraph()})
	if len(out.Failed) != 0 {
		t.Fatalf("failed: %v", out.Failed)
	}
	if got := x.Sems["movl:mem,reg"].Outs["a1"].String(); got != "load(a0)" {
		t.Errorf("load semantics = %q", got)
	}
	if got := x.Sems["addl:mem,reg"].Outs["a1"].String(); got != "add(load(a0), a1)" &&
		got != "add(a1, load(a0))" {
		t.Errorf("add semantics = %q", got)
	}
}

func TestSolveBranches(t *testing.T) {
	// Three flavors pin the branch relation.
	graphs := []*dfg.Graph{
		moveGraph(),
		condGraph(100, 200, 7, 99), // taken (b<c): a stays 7
		condGraph(200, 100, 7, 99), // not taken: a = 99
		condGraph(150, 150, 7, 99), // equal: not taken
	}
	x := New(32, DefaultWeights, nil)
	out := x.SolveAll(graphs)
	if len(out.Failed) != 0 {
		t.Fatalf("failed: %v", out.Failed)
	}
	jl := x.Sems["jl:label"]
	if jl == nil || jl.Cond == nil {
		t.Fatalf("no branch semantics: %v", jl)
	}
	cm := x.Sems["cmpl:mem,reg"]
	if cm == nil || cm.Outs["h.jl"] == nil {
		t.Fatalf("no compare semantics: %v", cm)
	}
}

func TestMatchBinary(t *testing.T) {
	g := addGraph()
	m := Match(g)
	if m == nil {
		t.Fatal("no match")
	}
	if m.PSig != "addl:mem,reg" || m.OpPrim != sem.PAdd {
		t.Errorf("P = %q prim %q", m.PSig, m.OpPrim)
	}
	if m.QSig != "movl:reg,mem" {
		t.Errorf("Q = %q", m.QSig)
	}
	if len(m.Loads) != 1 || m.Loads[0] != "movl:mem,reg" {
		t.Errorf("loads = %v", m.Loads)
	}
	boosts := MBoosts([]*MatchResult{m})
	if boosts["addl:mem,reg"][sem.PAdd] == 0 {
		t.Errorf("no M boost for the P node: %v", boosts)
	}
}

func TestMatchSkipsUnaryAndConst(t *testing.T) {
	if m := Match(moveGraph()); m != nil {
		t.Errorf("unary/move samples must not produce a P node: %+v", m)
	}
}

// TestLikelihoodOrdering verifies the E16 premise: default weights try far
// fewer candidates than a blind search on the same problem.
func TestLikelihoodOrdering(t *testing.T) {
	run := func(w Weights, boosts map[string]map[string]float64) int64 {
		tr := obs.New(obs.NewVirtualClock(), nil)
		x := New(32, w, boosts)
		x.Tr = tr
		out := x.SolveAll([]*dfg.Graph{moveGraph(), addGraph()})
		if len(out.Failed) != 0 {
			t.Fatalf("failed: %v", out.Failed)
		}
		return tr.Counter(CtrCandidatesTried)
	}
	m := Match(addGraph())
	guided := run(DefaultWeights, MBoosts([]*MatchResult{m}))
	blind := run(BlindWeights, nil)
	if guided > blind {
		t.Errorf("guided search (%d tries) worse than blind (%d)", guided, blind)
	}
}

func TestRunBranchToUnknownLabelExits(t *testing.T) {
	// A branch whose target is outside the region exits it.
	g := condGraph(200, 100, 7, 99) // not taken: a = 99
	g.Labels = map[string]int{}     // target resolves nowhere: exit
	sems := map[string]*sem.Sem{
		"movl:mem,reg": {Outs: map[string]*sem.Tree{"a1": sem.Load(sem.Arg("a0"))}},
		"movl:lit,mem": {Outs: map[string]*sem.Tree{"a1": sem.Arg("a0")}},
		"cmpl:mem,reg": {Outs: map[string]*sem.Tree{"h.jl": sem.Bin(sem.PCmp, sem.Arg("a1"), sem.Load(sem.Arg("a0")))}},
		"jl:label":     {Cond: sem.Un(sem.PIsLT, sem.Arg("h"))},
	}
	ok, err := Run(g, sems, 32)
	if !ok || err != nil {
		t.Fatalf("not-taken run: %v %v", ok, err)
	}
	// Taken: exits before the store, so a keeps a0.
	g2 := condGraph(100, 200, 7, 99)
	g2.Labels = map[string]int{}
	ok, err = Run(g2, sems, 32)
	if !ok || err != nil {
		t.Fatalf("taken run: %v %v", ok, err)
	}
}

func TestRunUndefinedRegisterRead(t *testing.T) {
	g := moveGraph()
	g.Steps[1].Ins[0].Producer = -1 // pretend nothing defined %edx
	sems := map[string]*sem.Sem{
		// The first step's semantics writes nothing (missing out tree).
		"movl:mem,reg": {Outs: map[string]*sem.Tree{}},
		"movl:reg,mem": {Outs: map[string]*sem.Tree{"a1": sem.Arg("a0")}},
	}
	if ok, err := Run(g, sems, 32); ok || err == nil {
		t.Fatalf("reading an unmodelled value must error, got ok=%v err=%v", ok, err)
	}
}

func TestMissingReportsPartialSems(t *testing.T) {
	x := New(32, DefaultWeights, nil)
	g := moveGraph()
	if n := len(x.missing(g)); n != 2 {
		t.Errorf("missing = %d, want 2", n)
	}
	x.Sems["movl:mem,reg"] = &sem.Sem{Outs: map[string]*sem.Tree{"a1": sem.Load(sem.Arg("a0"))}}
	if n := len(x.missing(g)); n != 1 {
		t.Errorf("missing after partial fix = %d, want 1", n)
	}
}

// shiftGraph models a VAX-style ashl: one instruction taking a literal
// count (positive = left, negative = right) plus a register-to-memory
// store. Both shift directions share the signature "ashx:lit,mem,reg".
func shiftGraph(name string, k, b, a0 int64) *dfg.Graph {
	expect := int64(int32(b) << uint(k))
	if k < 0 {
		expect = int64(int32(b) >> uint(-k))
	}
	op := "<<"
	if k < 0 {
		op = ">>"
	}
	v2b := b + 64
	v2e := int64(int32(v2b) << uint(k))
	if k < 0 {
		v2e = int64(int32(v2b) >> uint(-k))
	}
	s := &discovery.Sample{Name: name, Kind: discovery.PBinary, COp: op, Shape: "b,K", K: k,
		Vals: []discovery.Valuation{{A0: a0, B: b, C: 3, Expect: expect}, {A0: a0 + 5, B: v2b, C: 3, Expect: v2e}}}
	return &dfg.Graph{
		Sample: s,
		Labels: map[string]int{}, SlotA: "A", SlotB: "B", SlotC: "C",
		Steps: []dfg.Step{
			{Sig: "ashx:lit,mem,reg",
				Ins: []dfg.Port{
					{Kind: dfg.PLit, Lit: k, ArgIdx: 0, Producer: -1},
					memPort("B", 1),
				},
				Outs: []dfg.Port{regPort("r0", 2, -1)}},
			{Sig: "movl:reg,mem",
				Ins:  []dfg.Port{regPort("r0", 0, 0), memPort("A", 1)},
				Outs: []dfg.Port{memPort("A", 1)}},
		},
	}
}

// TestRecoverySearchGeneralizes reproduces the VAX ashl situation in
// miniature: the positive-count sample commits a plain left shift for the
// shared signature; the negative-count sample then cannot be evaluated
// under it. With the SignedShifts extension the recovery search must
// replace the committed special case by the signed-count shift, solving
// both samples.
func TestRecoverySearchGeneralizes(t *testing.T) {
	left := shiftGraph("shl.b_K", 4, 2100, 99)
	right := shiftGraph("shr.b_K", -3, 4096, 98)
	x := New(32, DefaultWeights, nil)
	x.SignedShifts = true
	out := x.SolveAll([]*dfg.Graph{left, right})
	if len(out.Failed) != 0 {
		t.Fatalf("failed: %v (solved %v)", out.Failed, out.Solved)
	}
	got := x.Sems["ashx:lit,mem,reg"].Outs["a2"]
	if got == nil || got.Prim != sem.PAsh {
		t.Errorf("shared signature should generalize to the signed shift, got %v", x.Sems["ashx:lit,mem,reg"])
	}
}

// TestRecoverySearchPaperFaithful checks the same scenario without the
// extension: the left shift stays solved with the plain primitive and the
// right shift is discarded — the paper's §5.2.3 outcome.
func TestRecoverySearchPaperFaithful(t *testing.T) {
	left := shiftGraph("shl.b_K", 4, 2100, 99)
	right := shiftGraph("shr.b_K", -3, 4096, 98)
	x := New(32, DefaultWeights, nil)
	out := x.SolveAll([]*dfg.Graph{left, right})
	if len(out.Solved) != 1 || out.Solved[0] != "shl.b_K" {
		t.Errorf("solved = %v, want only shl.b_K", out.Solved)
	}
	if len(out.Failed) != 1 || out.Failed[0] != "shr.b_K" {
		t.Errorf("failed = %v, want only shr.b_K", out.Failed)
	}
	got := x.Sems["ashx:lit,mem,reg"].Outs["a2"]
	if got == nil || got.Prim != sem.PShl {
		t.Errorf("committed semantics = %v, want plain shiftLeft", x.Sems["ashx:lit,mem,reg"])
	}
}

// copyGraph models `a = f(b)` as a load-like step then a store-like one,
// under the given signatures; vals are {a0, b, expect} triples.
func copyGraph(name, loadSig, storeSig string, vals ...[3]int64) *dfg.Graph {
	s := &discovery.Sample{Name: name, Kind: discovery.PUnary, Shape: "b"}
	for _, v := range vals {
		s.Vals = append(s.Vals, discovery.Valuation{A0: v[0], B: v[1], C: 3, Expect: v[2]})
	}
	return &dfg.Graph{
		Sample: s,
		Labels: map[string]int{}, SlotA: "A", SlotB: "B", SlotC: "C",
		Steps: []dfg.Step{
			{Sig: loadSig,
				Ins:  []dfg.Port{memPort("B", 0)},
				Outs: []dfg.Port{regPort("%edx", 1, -1)}},
			{Sig: storeSig,
				Ins:  []dfg.Port{regPort("%edx", 0, 0), memPort("A", 1)},
				Outs: []dfg.Port{memPort("A", 1)}},
		},
	}
}

// unexplained are valuations no candidate tree pair turns b into.
var unexplained = [][3]int64{{5, 77, 123457}, {16, 84, 9871}}

// solves runs SolveAll with a private tracer and returns the outcome and
// how many solve attempts it made.
func solves(x *Extractor, graphs ...*dfg.Graph) (Outcome, int64) {
	x.Tr = obs.New(obs.NewVirtualClock(), nil)
	out := x.SolveAll(graphs)
	for _, h := range x.Tr.Hists() {
		if h.Name == HistCandidatesPerSolve {
			return out, h.Count
		}
	}
	return out, 0
}

// TestExhaustedSearchMemo: a sample no candidate explains is searched
// again only after one of its signatures is committed or retracted.
func TestExhaustedSearchMemo(t *testing.T) {
	t.Run("unchanged", func(t *testing.T) {
		// Pass 1 searches u and solves move; pass 2 skips u, whose
		// signatures move does not share.
		u := copyGraph("u", "frob:mem,reg", "frobst:reg,mem", unexplained...)
		out, n := solves(New(32, DefaultWeights, nil), u, moveGraph())
		if len(out.Failed) != 1 || n != 2 {
			t.Errorf("failed %v after %d solves, want [u] after 2", out.Failed, n)
		}
	})
	t.Run("commit", func(t *testing.T) {
		// move commits u's store in pass 1, so pass 2 searches u again.
		u := copyGraph("u", "frob:mem,reg", "movl:reg,mem", unexplained...)
		out, n := solves(New(32, DefaultWeights, nil), u, moveGraph())
		if len(out.Failed) != 1 || n != 3 {
			t.Errorf("failed %v after %d solves, want [u] after 3", out.Failed, n)
		}
	})
	t.Run("retract", func(t *testing.T) {
		// u's committed frob cannot be evaluated (division by zero), so
		// pass 1 runs its recovery search; move is decidable but wrong
		// and retracts the store it shares with u. Pass 2 searches u for
		// the store and solves move, which commits it again, so pass 3
		// searches u once more.
		x := New(32, DefaultWeights, nil)
		x.Sems["frob:mem,reg"] = &sem.Sem{Outs: map[string]*sem.Tree{"a1": sem.Bin(sem.PDiv, sem.Load(sem.Arg("a0")), sem.Lit(0))}}
		x.Sems["movl:mem,reg"] = &sem.Sem{Outs: map[string]*sem.Tree{"a1": sem.Load(sem.Arg("a0"))}}
		x.Sems["movl:reg,mem"] = &sem.Sem{Outs: map[string]*sem.Tree{"a1": sem.Un(sem.PNeg, sem.Arg("a0"))}}
		u := copyGraph("u", "frob:mem,reg", "movl:reg,mem", unexplained...)
		out, n := solves(x, u, moveGraph())
		if len(out.Failed) != 1 || n != 5 {
			t.Errorf("failed %v after %d solves, want [u] after 5", out.Failed, n)
		}
	})
}

// TestInconsistentSearchNotMemoised: a search whose candidates explain
// the sample but break another decidable one depends on more than the
// sample's own signatures, so it runs again in every pass.
func TestInconsistentSearchNotMemoised(t *testing.T) {
	// s wants a = b and d wants a = -b through the same store, so each
	// one's explanations break the other; z solves alone, which gives a
	// second pass.
	x := New(32, DefaultWeights, nil)
	x.Sems["movl:mem,reg"] = &sem.Sem{Outs: map[string]*sem.Tree{"a1": sem.Load(sem.Arg("a0"))}}
	s := copyGraph("s", "movl:mem,reg", "frobst:reg,mem", [3]int64{5, 77, 77}, [3]int64{16, 84, 84})
	d := copyGraph("d", "movl:mem,reg", "frobst:reg,mem", [3]int64{9, 61, -61}, [3]int64{23, 90, -90})
	z := copyGraph("z", "zld:mem,reg", "zst:reg,mem", [3]int64{5, 77, 77}, [3]int64{16, 84, 84})
	out, n := solves(x, s, d, z)
	if len(out.Failed) != 2 || n != 5 {
		t.Errorf("failed %v after %d solves, want [s d] after 5", out.Failed, n)
	}
}
