package mutate

import (
	"fmt"
	"slices"
	"strings"

	"srcg/internal/discovery"
)

// memConsts are the two constants FindMemWriter plants, so that its
// verdict cannot hold by accident.
var memConsts = [2]int64{24683, -19751}

// FindMemWriter locates the instruction that writes the sample's output
// cell: a constant-store sequence (the const sample's region with a fresh
// distinctive constant) is inserted at a boundary, and the program then
// prints the constant exactly when nothing on the valuation's path writes
// the cell after it. The walk starts at region end, where every writer
// has run, and steps back one boundary at a time until a valuation no
// longer prints the constant; the last writer lies just before the
// boundary probed before that one. Two constants are planted so the
// verdict cannot hold by accident. Each (position, constant) probe is
// assembled once and linked once, with the batched initializer, so one
// run prints every valuation's line. storeSeq is the const sample's
// region; lit is its planted literal.
//
// The probe's staging registers are renamed to registers the region never
// mentions, for two reasons: a shared staging register would let a trailing
// original store re-store the probe constant (the Alpha's stl $1 after the
// probe also used $1 — the writer would appear one position early), and a
// leftover probe value in a region register would perturb later consumers
// (a MIPS bge reading the probe's $9 flips the branch and fakes a hit).
// Hardwired registers are never staging registers. Renamings that break
// the probe otherwise (class-restricted registers) are rejected by
// requiring the probe to work at region end, where it must always print
// the constant.
func (e *Engine) FindMemWriter(a *Analysis, storeSeq []discovery.Instr, lit int64) {
	defer e.enter(anMemWriter)()
	a.AWriter = -1
	s := a.Sample
	n := len(s.Vals)
	nStaging := len(discovery.Registers(storeSeq))
	fresh := slices.DeleteFunc(e.freshRegisters(a.Region, nStaging+4), e.hardwired)
	// printed runs the j-th constant's probe at p, once, and returns
	// which valuations printed the constant. The want is computed: the
	// constant on the lines guess marks, each other valuation's
	// ExpectedOut; a wrong guess only costs the quorum. A run that fails
	// or prints other than one line per valuation is a miss for every
	// valuation.
	printed := func(p *memProbe, j, pos, offset int, guess []bool) []bool {
		if p.out[j] == nil {
			p.out[j] = make([]bool, n)
			line := constLine(memConsts[j])
			m := e.build(s, storeProbe(a.Region, storeSeq, lit, memConsts[j], fresh[offset:], pos))
			for val, l := range e.lines(m, memWant(s, line, guess)) {
				p.out[j][val] = l == line
			}
		}
		return p.out[j]
	}
	// probe runs p's probes: the first constant's, then the second's only
	// if one of vals printed the first, guessing it wherever the first
	// printed.
	probe := func(p *memProbe, pos, offset int, vals []int, guess []bool) {
		guess = printed(p, 0, pos, offset, guess)
		if slices.ContainsFunc(vals, func(val int) bool { return guess[val] }) {
			printed(p, 1, pos, offset, guess)
		}
	}
	// Pick a register renaming the probe survives: at region end the probe
	// runs unconditionally after every writer, so valuation 0 must print
	// both constants there, as every valuation is guessed to. The pick
	// reads every valuation's verdict, which the walk starts from.
	all := make([]bool, n)
	vals := make([]int, n)
	for val := range all {
		all[val], vals[val] = true, val
	}
	offset := -1
	var end memProbe
	for o := 0; o+nStaging <= len(fresh); o++ {
		end = memProbe{}
		if probe(&end, len(a.Region), o, vals, all); end.hit(0) {
			offset = o
			break
		}
	}
	if offset < 0 {
		return
	}
	// Every valuation that printed both constants at region end takes
	// part. The store may sit on a conditionally executed path (a guarded
	// assignment's taken direction skips it), so the walk stops at the
	// first probed position where any of them misses, and the latest
	// writer wins: the last writer before the position probed before it.
	// Each line's guess is whether the valuation printed the first
	// constant at that later position.
	live := slices.DeleteFunc(vals, func(val int) bool { return !end.hit(val) })
	low := 0
	if namedTwice(a.Region, storeSeq) {
		// Only a region that names the output cell twice can read the
		// cell and write back what it read, and on such a path a store
		// planted at 0 prints while one between the read and the writer
		// misses. A valuation that prints both constants at 0 has no
		// writer on its path, so it leaves the walk.
		p := &memProbe{}
		probe(p, 0, offset, live, make([]bool, n))
		live = slices.DeleteFunc(live, p.hit)
		low = 1
	}
	if len(live) == 0 {
		return
	}
	every := func(out []bool) bool {
		return !slices.ContainsFunc(live, func(val int) bool { return !out[val] })
	}
	prev, guess := len(a.Region), end.out[0]
	for pos := len(a.Region) - 1; pos >= low; pos-- {
		// Never split a delay-slotted pair. A probe just before a
		// label-only instruction is off the path of every valuation that
		// jumps to the label, so its miss says nothing about writers.
		if pos > 0 && a.Slotted[pos-1] || a.Region[pos].Op == "" {
			continue
		}
		p := &memProbe{}
		if !every(printed(p, 0, pos, offset, guess)) || !every(printed(p, 1, pos, offset, p.out[0])) {
			break
		}
		prev, guess = pos, p.out[0]
	}
	a.AWriter = lastWriter(a, prev)
}

// memProbe is one position's pair of FindMemWriter probes: which
// valuations printed each constant (nil until its probe runs).
type memProbe struct {
	out [2][]bool
}

// hit reports whether valuation val printed both constants, once the
// first constant's probe has run.
func (p *memProbe) hit(val int) bool {
	return p.out[0][val] && p.out[1] != nil && p.out[1][val]
}

// lastWriter returns the nearest instruction before pos that can write:
// neither filler nor label-only. -1 when there is none, where the path
// writes nothing.
func lastWriter(a *Analysis, pos int) int {
	for i := pos - 1; i >= 0; i-- {
		if !a.Filler[i] && a.Region[i].Op != "" {
			return i
		}
	}
	return -1
}

// namedTwice reports whether two or more of region's instructions name
// the memory cell storeSeq stores to, the output cell.
func namedTwice(region, storeSeq []discovery.Instr) bool {
	var cell string
	for _, ins := range storeSeq {
		for _, arg := range ins.Args {
			if arg.Kind == discovery.KMem {
				cell = arg.Text
			}
		}
	}
	names := 0
	for _, ins := range region {
		if slices.ContainsFunc(ins.Args, func(arg discovery.Operand) bool { return arg.Kind == discovery.KMem && arg.Text == cell }) {
			names++
		}
	}
	return names > 1
}

// storeProbe returns region with storeSeq inserted before position pos,
// its planted literal lit replaced by k and its staging registers renamed
// in turn to fresh's.
func storeProbe(region, storeSeq []discovery.Instr, lit, k int64, fresh []string, pos int) []discovery.Instr {
	rename := map[string]string{}
	for i, r := range discovery.Registers(storeSeq) {
		rename[r] = fresh[i]
	}
	out := discovery.CloneInstrs(region)
	for i, ins := range discovery.CloneInstrs(storeSeq) {
		ins.Labels = nil
		for j := range ins.Args {
			arg := &ins.Args[j]
			if arg.Kind == discovery.KLit && arg.Lit == lit {
				arg.Text = strings.Replace(arg.Text, fmt.Sprintf("%d", lit), fmt.Sprintf("%d", k), 1)
			}
			if to, ok := rename[arg.Text]; ok && arg.Kind == discovery.KReg {
				arg.Text = to
				arg.Regs = []string{to}
			}
		}
		out = Insert(out, pos+i, ins)
	}
	return out
}

// constLine is what the harness prints for a planted constant k.
func constLine(k int64) string { return fmt.Sprintf("%d\n", int32(k)) }

// memWant is the exact reference of a batched FindMemWriter probe: line,
// the planted constant's, for each valuation guess marks, and every other
// valuation's ExpectedOut. Both are computed, never observed.
func memWant(s *discovery.Sample, line string, guess []bool) string {
	var sb strings.Builder
	for val, g := range guess {
		if g {
			sb.WriteString(line)
		} else {
			sb.WriteString(s.Vals[val].ExpectedOut)
		}
	}
	return sb.String()
}

// lines runs m's batched image, which runs every valuation, against
// want, an exact reference output, and returns each valuation's line with
// its newline, or nil when the run fails or prints other than one line
// per valuation. FindMemWriter and DetectHardwired read their verdicts
// off these lines.
func (e *Engine) lines(m mutant, want string) []string {
	out, err := e.run(m, m.s.InitSource, want)
	n := len(m.s.Vals)
	if err != nil || strings.Count(out, "\n") != n || !strings.HasSuffix(out, "\n") {
		return nil
	}
	return strings.SplitAfter(out, "\n")[:n]
}
