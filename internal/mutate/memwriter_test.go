package mutate

import (
	"fmt"
	"maps"
	"sort"
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

// memWriterPerValuation is FindMemWriter probing one valuation at a
// time: each (position, constant) probe links Fig. 3's one-valuation
// initializer once per unresolved valuation. It returns the writer.
func memWriterPerValuation(e *Engine, a *Analysis, storeSeq []discovery.Instr, lit int64) int {
	writer := -1
	nStaging := len(discovery.Registers(storeSeq))
	fresh := e.freshRegisters(a.Region, nStaging+4)
	hit := func(probes *[2]mutant, pos, val, offset int) bool {
		for j, k := range memConsts {
			if probes[j].s == nil {
				probes[j] = e.build(a.Sample, storeProbe(a.Region, storeSeq, lit, k, fresh[offset:], pos))
			}
			if !e.prints(probes[j], a.Sample.Valuation(val).InitSource, constLine(k)) {
				return false
			}
		}
		return true
	}
	offset := -1
	var end [2]mutant
	for o := 0; o+nStaging <= len(fresh); o++ {
		end = [2]mutant{}
		if hit(&end, len(a.Region), 0, o) {
			offset = o
			break
		}
	}
	if offset < 0 {
		return writer
	}
	unresolved := make([]int, a.Sample.NumValuations())
	for val := range unresolved {
		unresolved[val] = val
	}
	for pos := 0; pos <= len(a.Region) && len(unresolved) > 0; pos++ {
		if pos > 0 && a.Slotted[pos-1] {
			continue
		}
		var probes [2]mutant
		if pos == len(a.Region) {
			probes = end
		}
		still := unresolved[:0]
		for _, val := range unresolved {
			if !hit(&probes, pos, val, offset) {
				still = append(still, val)
				continue
			}
			writer = max(writer, lastWriter(a, pos))
		}
		unresolved = still
	}
	return writer
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
		for val := 0; val < s.NumValuations() && hard; val++ {
			got, err := e.run(m, s.Valuation(val).InitSource, "")
			var v int64
			if err == nil {
				_, err = fmt.Sscanf(got, "%d", &v)
			}
			hard = err == nil && (val == 0 || v == value) && v != s.Valuation(val).B
			value = v
		}
		if hard {
			out[cand] = value
		}
	}
	return out
}

// lineMachine edits what the machine prints. With drop set it loses the
// last line of every output of two or more lines, as a batched image
// that stops one valuation short would. With shift set it prints each
// planted FindMemWriter constant one higher on every line but the
// first, as a machine no computed reference can predict would; it then
// records each image's runs and last output.
type lineMachine struct {
	target.Toolchain
	drop, shift bool
	dropped     int
	runs        map[*asm.Image]int
	outs        map[*asm.Image]string
}

func (m *lineMachine) Execute(img *asm.Image) (string, error) {
	out, err := m.Toolchain.Execute(img)
	if m.drop && strings.Count(out, "\n") > 1 {
		m.dropped++
		out = out[:strings.LastIndex(strings.TrimSuffix(out, "\n"), "\n")+1]
	}
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

// TestBatchedMemWriterMatchesValuations: on every quick sample of the
// five targets, FindMemWriter's one image per (position, constant) must
// find the writer the per-valuation walk finds, also when every batched
// image loses its last line and the valuations fall back to Fig. 3's
// probe, and DetectHardwired's one image per candidate must find the
// registers the per-valuation rule finds.
func TestBatchedMemWriterMatchesValuations(t *testing.T) {
	hardwired, reordered := 0, 0
	for _, tc := range []target.Toolchain{x86.New(), sparc.New(), mips.New(), alpha.New(), vax.New()} {
		t.Run(tc.Name(), func(t *testing.T) {
			m := &lineMachine{Toolchain: tc}
			e, samples := setup(t, m)
			constA := analyze(t, e, samples["int.const.34117"])
			names := make([]string, 0, len(samples))
			for n := range samples {
				names = append(names, n)
			}
			sort.Strings(names)
			found := 0
			for _, n := range names {
				a, err := e.Analyze(samples[n])
				if err != nil {
					continue
				}
				want := memWriterPerValuation(e, a, constA.Region, 34117)
				if e.FindMemWriter(a, constA.Region, 34117); a.AWriter != want {
					t.Errorf("%s: batched writer %d, per-valuation writer %d:\n%s", n, a.AWriter, want, describe(a.Region))
				}
				// A guarded store's valuations resolve at different
				// positions; each in turn leads the batch.
				for r := 1; a.Sample.Kind == discovery.PCond && r < a.Sample.NumValuations(); r++ {
					b := *a
					b.Sample = rotate(a.Sample, r)
					want := memWriterPerValuation(e, &b, constA.Region, 34117)
					if e.FindMemWriter(&b, constA.Region, 34117); b.AWriter != want {
						t.Errorf("%s led by valuation %d: batched writer %d, per-valuation writer %d", n, r, b.AWriter, want)
					}
					lead := b
					lead.Sample = rotate(a.Sample, r)
					lead.Sample.Variants = nil
					if memWriterPerValuation(e, &lead, constA.Region, 34117) != want {
						reordered++
					}
				}
				m.drop = true
				dropped := m.dropped
				e.FindMemWriter(a, constA.Region, 34117)
				m.drop = false
				if a.AWriter != want {
					t.Errorf("%s: writer %d after falling back, per-valuation writer %d", n, a.AWriter, want)
				}
				if want >= 0 && a.Sample.NumValuations() > 1 && m.dropped == dropped {
					t.Errorf("%s: no batched image lost a line; the fallback went untested", n)
				}
				if want >= 0 {
					found++
				}
				if n == "int.move.b" {
					got, want := e.DetectHardwired(a.Sample), hardwiredPerValuation(e, a.Sample)
					if !maps.Equal(got, want) {
						t.Errorf("hardwired registers %v, per-valuation rule %v", got, want)
					}
					hardwired += len(got)
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

// rotate returns a copy of s whose valuations start at valuation r.
func rotate(s *discovery.Sample, r int) *discovery.Sample {
	vals := s.Valuations()
	vals = append(vals[r:], vals[:r]...)
	c := *s
	v := vals[0]
	c.A0, c.B, c.C, c.Expect, c.InitSource, c.ExpectedOut = v.A0, v.B, v.C, v.Expect, v.InitSource, v.ExpectedOut
	c.Variants = vals[1:]
	c.BatchInitSource = gen.BatchInitUnit(vals)
	c.BatchExpectedOut = ""
	for _, v := range vals {
		c.BatchExpectedOut += v.ExpectedOut
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
					computed = computed && val < a.Sample.NumValuations() && l == a.Sample.Valuation(val).ExpectedOut
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
	s := &discovery.Sample{B: 7, Variants: []discovery.Valuation{{B: 8}, {B: 9}}}
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
