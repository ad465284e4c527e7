package mutate

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"srcg/internal/asm"
	"srcg/internal/discovery"
	"srcg/internal/gen"
	"srcg/internal/target"
	"srcg/internal/target/alpha"
	"srcg/internal/target/mips"
	"srcg/internal/target/sparc"
	"srcg/internal/target/vax"
	"srcg/internal/target/x86"
)

// memHits is the oracle the reference walks read, FindMemWriter's probes
// one valuation at a time: hit(pos, val) reports whether valuation val,
// linked alone with Fig. 3's initializer, prints both planted constants
// with the store inserted before position pos. Each (position, constant)
// mutant is assembled once. ok is false when no register renaming
// survives at region end.
func memHits(e *Engine, a *Analysis, storeSeq []discovery.Instr, lit int64) (hit func(pos, val int) bool, ok bool) {
	nStaging := len(discovery.Registers(storeSeq))
	fresh := e.freshRegisters(a.Region, nStaging+4)
	probes := map[int]*[2]mutant{}
	offset := 0
	hit = func(pos, val int) bool {
		if probes[pos] == nil {
			probes[pos] = &[2]mutant{}
		}
		for j, k := range memConsts {
			m := &probes[pos][j]
			if m.s == nil {
				*m = e.build(a.Sample, storeProbe(a.Region, storeSeq, lit, k, fresh[offset:], pos))
			}
			if !e.prints(*m, initOf(a.Sample, val), constLine(k)) {
				return false
			}
		}
		return true
	}
	for ; offset+nStaging <= len(fresh); offset++ {
		delete(probes, len(a.Region))
		if hit(len(a.Region), 0) {
			return hit, true
		}
	}
	return nil, false
}

// forwardWalk is the output-writer walk from position 0 up, the
// reference for FindMemWriter's walk from region end. It skips positions
// that split a delay-slotted pair, resolves each valuation at the
// smallest position where it hits, and returns the latest of their last
// writers, read by forwardLastWriter.
func forwardWalk(a *Analysis, hit func(pos, val int) bool) int {
	writer := -1
	unresolved := make([]int, len(a.Sample.Vals))
	for val := range unresolved {
		unresolved[val] = val
	}
	for pos := 0; pos <= len(a.Region) && len(unresolved) > 0; pos++ {
		if pos > 0 && a.Slotted[pos-1] {
			continue
		}
		still := unresolved[:0]
		for _, val := range unresolved {
			if !hit(pos, val) {
				still = append(still, val)
				continue
			}
			writer = max(writer, forwardLastWriter(a, pos))
		}
		unresolved = still
	}
	return writer
}

// forwardLastWriter is lastWriter without the label skip: the nearest
// non-filler instruction before pos, label-only ones included.
func forwardLastWriter(a *Analysis, pos int) int {
	for i := pos - 1; i >= 0; i-- {
		if !a.Filler[i] {
			return i
		}
	}
	return -1
}

// plainBackwardWalk is the backward walk without the label rule: it
// probes every position from region end down, except those that split a
// delay-slotted pair, and stops at the first where a valuation that hit
// at region end misses, reading the writer with forwardLastWriter.
func plainBackwardWalk(a *Analysis, hit func(pos, val int) bool) int {
	var live []int
	for val := range a.Sample.Vals {
		if hit(len(a.Region), val) {
			live = append(live, val)
		}
	}
	prev := len(a.Region)
	for pos := prev - 1; pos >= 0; pos-- {
		if pos > 0 && a.Slotted[pos-1] {
			continue
		}
		if slices.ContainsFunc(live, func(val int) bool { return !hit(pos, val) }) {
			break
		}
		prev = pos
	}
	return forwardLastWriter(a, prev)
}

// memWriterPerValuation is the forward walk on the per-valuation oracle,
// the reference FindMemWriter must agree with.
func memWriterPerValuation(e *Engine, a *Analysis, storeSeq []discovery.Instr, lit int64) int {
	hit, ok := memHits(e, a, storeSeq, lit)
	if !ok {
		return -1
	}
	return forwardWalk(a, hit)
}

// hardwiredPerValuation is DetectHardwired running each candidate once
// per valuation under Fig. 3's initializer and the full quorum.
func hardwiredPerValuation(e *Engine, s *discovery.Sample) map[string]int64 {
	out := map[string]int64{}
	path := ""
	for _, ins := range s.Region {
		for _, arg := range ins.Args {
			if arg.Kind == discovery.KReg && path == "" {
				path = arg.Regs[0]
			}
		}
	}
	if path == "" {
		return out
	}
	for _, cand := range e.Model.Registers {
		if cand == path {
			continue
		}
		mut := s.CloneRegion()
		for i := range mut {
			mut[i].RenameReg(path, cand)
		}
		m := e.build(s, mut)
		var value int64
		hard := true
		for val := 0; val < len(s.Vals) && hard; val++ {
			got, err := e.run(m, initOf(s, val), "")
			var v int64
			if err == nil {
				_, err = fmt.Sscanf(got, "%d", &v)
			}
			hard = err == nil && (val == 0 || v == value) && v != s.Vals[val].B
			value = v
		}
		if hard {
			out[cand] = value
		}
	}
	return out
}

// lineMachine edits what the machine prints. With shift set it prints
// each planted FindMemWriter constant one higher on every line but the
// first, as a machine no computed reference can predict would; it then
// records each image's runs and last output.
type lineMachine struct {
	target.Toolchain
	shift bool
	runs  map[*asm.Image]int
	outs  map[*asm.Image]string
}

func (m *lineMachine) Execute(img *asm.Image) (string, error) {
	out, err := m.Toolchain.Execute(img)
	if m.shift {
		lines := strings.SplitAfter(out, "\n")
		for i := 1; i < len(lines); i++ {
			for _, k := range memConsts {
				if lines[i] == constLine(k) {
					lines[i] = constLine(k + 1)
				}
			}
		}
		out = strings.Join(lines, "")
		m.runs[img]++
		m.outs[img] = out
	}
	return out, err
}

// TestBatchedMemWriterMatchesValuations: on every quick and full sample
// of the five targets at seeds 1-3, FindMemWriter's backward walk, one
// image per (position, constant), must find the writer the forward walk
// finds probing one valuation at a time, and DetectHardwired's one image
// per candidate must find the registers the per-valuation rule finds.
func TestBatchedMemWriterMatchesValuations(t *testing.T) {
	hardwired, reordered := 0, 0
	for _, tc := range []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()} {
		t.Run(tc.Name(), func(t *testing.T) {
			found := 0
			for _, full := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					e, samples := setupSet(t, tc, gen.Config{Rand: rand.New(rand.NewSource(seed)), Full: full})
					constA := analyze(t, e, samples["int.const.34117"])
					names := sortedKeys(samples)
					for _, n := range names {
						a, err := e.Analyze(samples[n])
						if err != nil {
							continue
						}
						n := fmt.Sprintf("%s (seed %d, full %v)", n, seed, full)
						want := memWriterPerValuation(e, a, constA.Region, 34117)
						if e.FindMemWriter(a, constA.Region, 34117); a.AWriter != want {
							t.Errorf("%s: batched writer %d, per-valuation writer %d:\n%s", n, a.AWriter, want, describe(a.Region))
						}
						if a.AWriter >= 0 && a.Region[a.AWriter].Op == "" {
							t.Errorf("%s: the writer %d is a label-only instruction", n, a.AWriter)
						}
						// A guarded store's valuations resolve at different
						// positions; each in turn leads the batch.
						for r := 1; a.Sample.Kind == discovery.PCond && r < len(a.Sample.Vals); r++ {
							b := *a
							b.Sample = rotate(a.Sample, r)
							want := memWriterPerValuation(e, &b, constA.Region, 34117)
							if e.FindMemWriter(&b, constA.Region, 34117); b.AWriter != want {
								t.Errorf("%s led by valuation %d: batched writer %d, per-valuation writer %d", n, r, b.AWriter, want)
							}
							lead := b
							lead.Sample = baseOnly(b.Sample)
							if memWriterPerValuation(e, &lead, constA.Region, 34117) != want {
								reordered++
							}
						}
						if want >= 0 {
							found++
						}
						if a.Sample.Name == "int.move.b" {
							got, want := e.DetectHardwired(a.Sample), hardwiredPerValuation(e, a.Sample)
							if !maps.Equal(got, want) {
								t.Errorf("%s: hardwired registers %v, per-valuation rule %v", n, got, want)
							}
							hardwired += len(got)
						}
					}
				}
			}
			if found == 0 {
				t.Error("no sample has an output-cell writer")
			}
		})
	}
	if hardwired == 0 {
		t.Error("no target has a hardwired register")
	}
	if reordered == 0 {
		t.Error("no leading valuation alone misses the writer; a verdict read off the wrong line would go unseen")
	}
}

// TestGuardedStoreWriter pins the walk on a hand-built guarded store,
// `if (b != c) a = 8219` on the VAX:
//
//	0: cmpl -8(fp), -12(fp)
//	1: jeql .L7
//	2: movl $8219, -4(fp)
//	3: .L7:
//
// A valuation with b == c jumps to .L7, past a store planted at position
// 3, so that store misses on its path although nothing after it writes
// a. A walk from region end that stops at that miss returns 3, the label.
// The walk skips the position before a label-only instruction, stops at
// 2, where the fall-through valuations' movl overwrites the store, and
// returns 2, as the forward walk does. lastWriter never returns a
// label-only instruction.
func TestGuardedStoreWriter(t *testing.T) {
	e, samples := setup(t, vax.New())
	constA := analyze(t, e, samples["int.const.34117"])
	var s *discovery.Sample
	for _, c := range samples {
		if c.Kind != discovery.PCond || s != nil && c.Name > s.Name {
			continue
		}
		eq := 0
		for _, v := range c.Vals {
			if v.B == v.C {
				eq++
			}
		}
		if eq > 0 && eq < len(c.Vals) {
			s = c
		}
	}
	if s == nil {
		t.Fatal("no conditional sample has valuations on both paths")
	}
	fp := func(off int64) discovery.Operand {
		return discovery.Operand{Text: fmt.Sprintf("%d(fp)", off), Kind: discovery.KMem, Regs: []string{"fp"}, Lit: off}
	}
	a := &Analysis{
		Sample: s,
		Region: []discovery.Instr{
			{Op: "cmpl", Args: []discovery.Operand{fp(-8), fp(-12)}},
			{Op: "jeql", Args: []discovery.Operand{{Text: ".L7", Kind: discovery.KLabelRef, Sym: ".L7"}}},
			{Op: "movl", Args: []discovery.Operand{{Text: "$8219", Kind: discovery.KLit, Lit: 8219}, fp(-4)}},
			{Labels: []string{".L7"}},
		},
		Filler:  map[int]bool{},
		Slotted: map[int]bool{},
	}
	hit, ok := memHits(e, a, constA.Region, 34117)
	if !ok {
		t.Fatal("no register renaming survives at region end")
	}
	if got := plainBackwardWalk(a, hit); got != 3 {
		t.Errorf("%s: the walk without the label rule returned %d; want 3, the label", s.Name, got)
	}
	if got := forwardWalk(a, hit); got != 2 {
		t.Errorf("%s: the forward walk returned %d; want 2, the movl", s.Name, got)
	}
	if e.FindMemWriter(a, constA.Region, 34117); a.AWriter != 2 {
		t.Errorf("%s: FindMemWriter returned %d; want 2, the movl", s.Name, a.AWriter)
	}
	for pos, want := range []int{-1, 0, 1, 2, 2} {
		if got := lastWriter(a, pos); got != want {
			t.Errorf("lastWriter(%d) = %d; want %d", pos, got, want)
		}
	}
}

// rotate returns a copy of s whose valuations start at valuation r.
func rotate(s *discovery.Sample, r int) *discovery.Sample {
	c := *s
	c.Vals = slices.Concat(s.Vals[r:], s.Vals[:r])
	c.InitSource = gen.InitUnit(c.Vals)
	c.ExpectedOut = ""
	for _, v := range c.Vals {
		c.ExpectedOut += v.ExpectedOut
	}
	return &c
}

// TestMemWriterWantsAreComputed: every want of FindMemWriter and
// DetectHardwired is built from the valuations' ExpectedOuts and the
// planted constants alone, never from an output seen on the machine. A
// want matters only when a run settles alone by printing it, so on a
// machine that prints the later valuations' constants shifted, every
// image that settled in one run must have printed only those computed
// lines, while images that printed a shifted line must have run the
// quorum.
func TestMemWriterWantsAreComputed(t *testing.T) {
	m := &lineMachine{Toolchain: x86.New()}
	e, samples := setup(t, m)
	constA := analyze(t, e, samples["int.const.34117"])
	cond := ""
	for n, s := range samples {
		if s.Kind == discovery.PCond && (cond == "" || n < cond) {
			cond = n
		}
	}
	names := []string{"int.add.b_c", cond, "int.move.b"}
	alone, shifted := 0, 0
	for _, n := range names {
		a := analyze(t, e, samples[n])
		m.shift, m.runs, m.outs = true, map[*asm.Image]int{}, map[*asm.Image]string{}
		e.FindMemWriter(a, constA.Region, 34117)
		if n == "int.move.b" {
			e.DetectHardwired(a.Sample)
		}
		m.shift = false
		for img, out := range m.outs {
			computed := true
			for val, l := range strings.SplitAfter(out, "\n") {
				switch l {
				case "", constLine(memConsts[0]), constLine(memConsts[1]):
				case constLine(memConsts[0] + 1), constLine(memConsts[1] + 1):
					shifted++
					computed = false
				default:
					computed = computed && val < len(a.Sample.Vals) && l == a.Sample.Vals[val].ExpectedOut
				}
			}
			if m.runs[img] == 1 {
				alone++
				if !computed {
					t.Errorf("%s: an image settled in one run printing %q, which no computed want holds", n, out)
				}
			}
		}
	}
	if alone == 0 || shifted == 0 {
		t.Errorf("%d images settled alone and %d lines were shifted; the test needs both", alone, shifted)
	}
}

// TestHardwiredValue pins DetectHardwired's rule on the lines a renamed
// move sample prints: one number on every line, never the moved value b.
func TestHardwiredValue(t *testing.T) {
	s := &discovery.Sample{Vals: []discovery.Valuation{{B: 7}, {B: 8}, {B: 9}}}
	for _, c := range []struct {
		lines []string
		value int64
		ok    bool
	}{
		{[]string{"0\n", "0\n", "0\n"}, 0, true},
		{[]string{"5\n", "5\n", "5\n"}, 5, true},
		{[]string{"7\n", "8\n", "9\n"}, 0, false}, // an ordinary register
		{[]string{"5\n", "5\n", "6\n"}, 0, false},
		{[]string{"8\n", "8\n", "8\n"}, 0, false}, // b of valuation 1
		{[]string{"0\n", "x\n", "0\n"}, 0, false},
		{nil, 0, false}, // not one line per valuation
	} {
		if v, ok := hardwiredValue(s, c.lines); v != c.value || ok != c.ok {
			t.Errorf("hardwiredValue(%q) = %d, %v; want %d, %v", c.lines, v, ok, c.value, c.ok)
		}
	}
}
