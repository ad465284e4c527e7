package lexer

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"srcg/internal/asm"
	"srcg/internal/discovery"
)

// gibberishToken is substituted into operand positions to find positions
// that only accept registers (a rejected substitution proves the position
// is register-discriminating; symbol-accepting positions accept anything
// identifier-like).
const gibberishToken = "zzqk9"

// DiscoverRegisters finds the target's register set by scanning sample
// operands for candidate tokens and verifying each candidate with
// assembler accept/reject probing (paper §3.1: "we can textually scan the
// assembly code ... or we can draw conclusions based on whether a
// particular assembly program is accepted or rejected by the assembler").
// It then enumerates numeric-suffix families (from %o0, try %o1..%o31) to
// find registers the compiler never used.
func DiscoverRegisters(rig *discovery.Rig, m *discovery.Model, texts []string) error {
	candidates := collectCandidates(m, texts)
	if len(candidates) == 0 {
		return fmt.Errorf("lexer: no register candidates found")
	}
	// Find a register-discriminating probe: a text plus a candidate
	// occurrence whose replacement by gibberish is rejected.
	probe, ok := findProbe(rig, m, texts, candidates)
	if !ok {
		return fmt.Errorf("lexer: no register-discriminating operand position found")
	}
	m.RegSet = map[string]bool{}
	verified := func(tok string) bool {
		return rig.Accepts(probe.substitute(tok))
	}
	for _, c := range candidates {
		if verified(c) {
			m.RegSet[c] = true
		}
	}
	if len(m.RegSet) == 0 {
		return fmt.Errorf("lexer: no candidates verified as registers")
	}
	// Enumerate families: for every verified register ending in digits,
	// try all numeric suffixes 0..31.
	family := map[string]bool{}
	for r := range m.RegSet {
		stem := strings.TrimRight(r, "0123456789")
		if stem != r && stem != "" {
			family[stem] = true
		}
	}
	// Probe stems in sorted order: verified() hits the assembler, and the
	// probe sequence must be identical run to run.
	stems := make([]string, 0, len(family))
	for stem := range family {
		stems = append(stems, stem)
	}
	sort.Strings(stems)
	for _, stem := range stems {
		for n := 0; n <= 31; n++ {
			cand := fmt.Sprintf("%s%d", stem, n)
			if m.RegSet[cand] {
				continue
			}
			if verified(cand) {
				m.RegSet[cand] = true
			}
		}
	}
	m.Registers = make([]string, 0, len(m.RegSet))
	for r := range m.RegSet {
		m.Registers = append(m.Registers, r)
	}
	sort.Strings(m.Registers)
	return nil
}

// scanText tokenizes every instruction line of an assembly text and
// records the symbols it defines: its labels, and the names its
// directives declare. A directive is skipped otherwise.
func scanText(m *discovery.Model, text string) (instrs []discovery.Instr, syms map[string]bool) {
	syms = map[string]bool{}
	for i, raw := range strings.Split(text, "\n") {
		clean := stripComment(m, raw)
		label, rest := lineLabel(clean)
		if label != "" {
			syms[label] = true
		}
		if rest == "" {
			continue
		}
		if strings.HasPrefix(rest, ".") {
			if sym, ok := declared(rest); ok {
				syms[sym] = true
			}
			continue
		}
		if ins, ok := tokenizeInstr(m, rest, i); ok {
			instrs = append(instrs, ins)
		}
	}
	return instrs, syms
}

// declared returns the symbol a directive line declares: its first
// operand, when that is a bare name (".comm z1, 4", ".globl main"). A
// string, a number or a sigiled operand declares nothing.
func declared(directive string) (string, bool) {
	_, args := tokenizeLine(directive)
	if len(args) == 0 || args[0] == "" || args[0][0] >= '0' && args[0][0] <= '9' {
		return "", false
	}
	for i := 0; i < len(args[0]); i++ {
		if !isWordByte(args[0][i]) {
			return "", false
		}
	}
	return args[0], true
}

// collectCandidates gathers operand sub-tokens from entire sample texts
// (prologues, call sequences, and payloads alike) that are not literals
// and not defined symbols.
func collectCandidates(m *discovery.Model, texts []string) []string {
	seen := map[string]bool{}
	labels := map[string]bool{}
	var all []discovery.Instr
	for _, text := range texts {
		instrs, defs := scanText(m, text)
		for l := range defs {
			// A defined symbol's sub-tokens are symbols too: ".L1:" keeps
			// the "L1" of "jmp .L1" out of the candidates.
			labels[l] = true
			for _, t := range subTokens(l) {
				labels[t.text] = true
			}
		}
		all = append(all, instrs...)
	}
	var out []string
	for _, ins := range all {
		for _, a := range ins.Args {
			for _, t := range subTokens(a.Text) {
				tok := t.text
				if seen[tok] || labels[tok] {
					continue
				}
				if _, isLit := ParseLit(m, tok); isLit {
					continue
				}
				if strings.HasPrefix(tok, "-") {
					continue
				}
				seen[tok] = true
				out = append(out, tok)
			}
		}
	}
	sort.Strings(out)
	return out
}

// regProbe is a sample text with one marked token occurrence that only
// assembles when the substituted token is a register.
type regProbe struct {
	pre, post string
}

func (p regProbe) substitute(tok string) string { return p.pre + tok + p.post }

// findProbe searches texts for a register-discriminating position.
func findProbe(rig *discovery.Rig, m *discovery.Model, texts []string, candidates []string) (regProbe, bool) {
	for _, text := range texts {
		instrs, _ := scanText(m, text)
		for _, ins := range instrs {
			for _, a := range ins.Args {
				for _, t := range subTokens(a.Text) {
					tok := t.text
					if !slices.Contains(candidates, tok) {
						continue
					}
					idx := strings.Index(text, ins.Raw)
					if idx < 0 {
						continue
					}
					tokIdx := strings.Index(text[idx:], tok)
					if tokIdx < 0 {
						continue
					}
					p := regProbe{
						pre:  text[:idx+tokIdx],
						post: text[idx+tokIdx+len(tok):],
					}
					// The position qualifies if gibberish is rejected, the
					// original token is accepted, and at least one OTHER
					// candidate is accepted too (a register position must
					// admit more than one register).
					if !rig.Accepts(p.substitute(gibberishToken)) && rig.Accepts(p.substitute(tok)) {
						others := 0
						for _, c := range candidates {
							if c != tok && rig.Accepts(p.substitute(c)) {
								others++
								break
							}
						}
						if others > 0 {
							return p, true
						}
					}
				}
			}
		}
	}
	return regProbe{}, false
}

// DiscoverClobber finds an instruction template that sets a register to an
// immediate — the clobber mutation's workhorse (paper Fig. 6 uses the
// Alpha's ldiq). Candidates are two-operand instructions from the corpus
// probed with (literal, register) and (register, literal) operand orders;
// a candidate is validated *semantically* by inserting it into a sample
// region ahead of a register's final use and checking that the program
// then prints the clobber constant. The first candidate in corpus order
// that assembles and validates wins. initText is the compiled initializer
// of samples[0], which every validation probe links.
func DiscoverClobber(rig *discovery.Rig, m *discovery.Model, samples []*discovery.Sample, initText string) error {
	type cand struct {
		op       string
		litFirst bool
	}
	seen := map[cand]bool{}
	var cands []cand
	for _, s := range samples {
		for _, ins := range s.Region {
			if len(ins.Args) != 2 {
				continue
			}
			for _, c := range []cand{{ins.Op, true}, {ins.Op, false}} {
				if !seen[c] {
					seen[c] = true
					cands = append(cands, c)
				}
			}
		}
	}
	lit := func(k int64) string { return fmt.Sprintf("%s%d", m.LitPrefix, k) }
	render := func(c cand, reg string, k int64) string {
		if c.litFirst {
			return fmt.Sprintf("\t%s %s, %s", c.op, lit(k), reg)
		}
		return fmt.Sprintf("\t%s %s, %s", c.op, reg, lit(k))
	}
	initUnit, err := rig.Assemble(initText)
	if err != nil {
		return fmt.Errorf("lexer: init unit: %v", err)
	}
	base := samples[0]
	for _, c := range cands {
		clob := func(reg string, k int64) string { return render(c, reg, k) }
		// The candidate must assemble with at least one discovered register
		// (register classes differ: %cl on the x86 is shift-count only).
		// Then inserting CLOB(K, R) before an instruction and seeing K in
		// the output proves the template sets R to K.
		assembles := slices.ContainsFunc(m.Registers, func(reg string) bool {
			return rig.Accepts(insertLine(base, 0, clob(reg, 1235)))
		})
		if assembles && validateClobber(rig, samples, len(base.Vals), initUnit, clob) {
			m.Clobber = clob
			m.ClobberText = strings.TrimSpace(strings.Replace(clob("<r>", 0), lit(0), "<k>", 1))
			return nil
		}
	}
	return fmt.Errorf("lexer: no clobber candidate validated semantically")
}

// insertLine rebuilds a sample's text with an extra line inserted before
// region instruction i.
func insertLine(s *discovery.Sample, i int, line string) string {
	var sb strings.Builder
	for _, l := range s.PreLines {
		sb.WriteString(l + "\n")
	}
	for j, ins := range s.Region {
		if j == i {
			sb.WriteString(line + "\n")
		}
		sb.WriteString(ins.Text() + "\n")
	}
	if i >= len(s.Region) {
		sb.WriteString(line + "\n")
	}
	for _, l := range s.PostLines {
		sb.WriteString(l + "\n")
	}
	return sb.String()
}

// validateClobber links every probe with initUnit, which runs the
// payload once for each of its vals valuations, so a template that sets
// the output register prints its constant once per valuation.
func validateClobber(rig *discovery.Rig, samples []*discovery.Sample, vals int, initUnit *asm.Unit, render func(string, int64) string) bool {
	const k1, k2 = 29173, -12345
	printed := func(k int64) string { return strings.Repeat(fmt.Sprintf("%d\n", int32(k)), vals) }
	for _, s := range samples {
		if s.Kind != discovery.PUnary && s.Kind != discovery.PBinary {
			continue
		}
		// Try clobbering each register occurring in the region, before
		// each instruction position following its first appearance.
		for _, reg := range discovery.Registers(s.Region) {
			for i := 1; i <= len(s.Region); i++ {
				out1, err1 := assembleRun(rig, insertLine(s, i, render(reg, k1)), initUnit)
				if err1 != nil || out1 != printed(k1) {
					continue
				}
				out2, err2 := assembleRun(rig, insertLine(s, i, render(reg, k2)), initUnit)
				if err2 != nil || out2 != printed(k2) {
					continue
				}
				// Idempotence: a template that *sets* R prints k2 no
				// matter how often it runs; an accumulating template
				// (addl2 $k,R at a spot where R happens to be 0) prints
				// 2·k2 and is useless as a repair instruction later.
				line := render(reg, k2)
				out3, err3 := assembleRun(rig, insertLine(s, i, line+"\n"+line), initUnit)
				if err3 == nil && out3 == printed(k2) {
					return true
				}
			}
		}
	}
	return false
}

func assembleRun(rig *discovery.Rig, text string, initUnit *asm.Unit) (string, error) {
	u, err := rig.Assemble(text)
	if err != nil {
		return "", err
	}
	return rig.LinkRun("", u, initUnit)
}
