// Package lexer implements the Lexer of the discovery unit (paper §3.1):
// it discovers the assembler's surface syntax by textual scanning and
// accept/reject probing, extracts the instructions relevant to a sample
// (delimited by the Begin/End labels of the Fig. 3 harness), and tokenizes
// them. It also discovers the register set, a clobber template, immediate
// ranges, and addressing-mode shapes — all through the toolchain black box.
package lexer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"srcg/internal/discovery"
)

// commentCandidates are the comment-to-end-of-line markers tried by the
// probe (the paper: "add an obviously erroneous line preceded by a
// suspected comment character").
var commentCandidates = []string{"#", "!", ";", "|", "//", "/*", "*"}

// garbage is a line no assembler should accept un-commented.
const garbage = "zzz!!! certainly not an instruction $$$"

// ProbeSyntax discovers the assembler's comment character and integer
// literal syntax. base is the assembly produced from `main(){}` and
// litAsm the assembly from `main(){int a=1235;}` (both already compiled
// by the caller through the rig).
func ProbeSyntax(rig *discovery.Rig, m *discovery.Model, base, litAsm string) error {
	// Comment character: append a garbage line prefixed by each candidate
	// and see whether the assembler still accepts the file.
	if !rig.Accepts(base) {
		return fmt.Errorf("lexer: baseline main(){} assembly rejected by the assembler")
	}
	if rig.Accepts(base + "\n" + garbage + "\n") {
		return fmt.Errorf("lexer: assembler accepts garbage; cannot probe syntax")
	}
	for _, c := range commentCandidates {
		if rig.Accepts(base + "\n" + c + " " + garbage + "\n") {
			m.CommentChar = c
			break
		}
	}
	if m.CommentChar == "" {
		return fmt.Errorf("lexer: no comment character discovered")
	}

	// Literal syntax: scan for 1235 in common bases with common prefixes
	// (paper: compile main(){int a=1235;} and scan the assembly).
	m.LitBases = map[int]string{}
	// Ordered, not a map: these drive LitBases/LitPrefix writes and
	// assembler probes, so the scan and probe order must be fixed — with
	// several accepted spellings of one base (0x4d3 vs 0X4D3) the first
	// spelling tried is the prefix the MD records.
	litReps := []struct {
		rep    string
		base   int
		prefix string
	}{
		{"1235", 10, ""},
		{"0x4d3", 16, "0x"},
		{"0x4D3", 16, "0x"},
		{"0X4D3", 16, "0X"},
		{"02323", 8, "0"},
		{"0b10011010011", 2, "0b"},
	}
	for _, info := range litReps {
		if containsToken(litAsm, info.rep) {
			m.LitBases[info.base] = info.prefix
		}
	}
	if len(m.LitBases) == 0 {
		return fmt.Errorf("lexer: constant 1235 not found in any known base")
	}
	// Literal marker: if the token carrying 1235 is prefixed (x86/VAX $),
	// record the marker.
	for _, tok := range strings.FieldsFunc(litAsm, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ',' || r == '\n' || r == '(' || r == '[' || r == ']' || r == ')'
	}) {
		for _, info := range litReps {
			if strings.HasSuffix(tok, info.rep) && len(tok) > len(info.rep) {
				m.LitPrefix = tok[:len(tok)-len(info.rep)]
			}
			if tok == info.rep {
				m.LitPrefix = ""
			}
		}
	}
	// Probe which bases the assembler accepts by substituting alternative
	// spellings of 1235 into the literal-bearing line.
	line, ok := findLineWithToken(litAsm, "1235", m.LitPrefix)
	if ok {
		for _, info := range litReps {
			alt := strings.Replace(litAsm, line.orig, strings.Replace(line.orig, line.tok, m.LitPrefix+info.rep, 1), 1)
			if rig.Accepts(alt) {
				if _, exists := m.LitBases[info.base]; !exists {
					m.LitBases[info.base] = info.prefix
				}
			}
		}
	}
	return nil
}

type litLine struct {
	orig string // full original line
	tok  string // the literal token within it
}

func containsToken(text, tok string) bool {
	idx := 0
	for {
		i := strings.Index(text[idx:], tok)
		if i < 0 {
			return false
		}
		i += idx
		before := byte(' ')
		if i > 0 {
			before = text[i-1]
		}
		after := byte(' ')
		if i+len(tok) < len(text) {
			after = text[i+len(tok)]
		}
		if !isWordByte(before) && !isWordByte(after) {
			return true
		}
		idx = i + len(tok)
	}
}

func isWordByte(c byte) bool {
	return c == '_' || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func findLineWithToken(text, tok, prefix string) (litLine, bool) {
	for _, l := range strings.Split(text, "\n") {
		if containsToken(l, tok) {
			return litLine{orig: l, tok: prefix + tok}, true
		}
	}
	return litLine{}, false
}

// stripComment removes a trailing comment using the discovered marker.
func stripComment(m *discovery.Model, line string) string {
	if m.CommentChar == "" {
		return line
	}
	if i := strings.Index(line, m.CommentChar); i >= 0 {
		return line[:i]
	}
	return line
}

// lineLabel splits an optional leading "label:" off a source line.
func lineLabel(line string) (label, rest string) {
	t := strings.TrimSpace(line)
	if i := strings.Index(t, ":"); i > 0 {
		cand := t[:i]
		if !strings.ContainsAny(cand, " \t,()[]$%") || strings.HasPrefix(cand, ".") {
			return cand, strings.TrimSpace(t[i+1:])
		}
	}
	return "", t
}

// Tokenize splits one instruction line into op + raw comma-separated args.
func tokenizeLine(rest string) (op string, args []string) {
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return "", nil
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		op, rest = rest[:i], strings.TrimSpace(rest[i+1:])
	} else {
		return rest, nil
	}
	if rest == "" {
		return op, nil
	}
	for _, a := range strings.Split(rest, ",") {
		args = append(args, strings.TrimSpace(a))
	}
	return op, args
}

// Extract locates the Begin/End-delimited region in a sample's assembly
// and tokenizes it. The delimiting labels are identified as the two labels
// referenced at least three times (the harness's six conditional gotos,
// Fig. 3).
func Extract(m *discovery.Model, s *discovery.Sample) error {
	lines := strings.Split(s.FullAsm, "\n")
	type def struct {
		line int
		rest string // instruction text on the same line, if any
	}
	defs := map[string]def{}
	refs := map[string]int{}
	for i, raw := range lines {
		text := stripComment(m, raw)
		label, rest := lineLabel(text)
		if label != "" {
			defs[label] = def{line: i, rest: rest}
		}
		_, args := tokenizeLine(rest)
		for _, a := range args {
			refs[a]++
		}
	}
	var marks []string
	for l, n := range refs {
		if n >= 3 {
			if _, isLabel := defs[l]; isLabel {
				marks = append(marks, l)
			}
		}
	}
	sort.Strings(marks)
	if len(marks) != 2 {
		return fmt.Errorf("lexer: %s: found %d delimiting labels, want 2", s.Name, len(marks))
	}
	begin, end := marks[0], marks[1]
	if defs[begin].line > defs[end].line {
		begin, end = end, begin
	}
	startLine, endLine := defs[begin].line, defs[end].line

	s.PreLines = append([]string(nil), lines[:startLine+1]...)
	s.PostLines = append([]string(nil), lines[endLine:]...)
	s.Region = nil
	// An instruction may share the Begin label's line.
	if rest := defs[begin].rest; rest != "" {
		// Keep it in the region; the label stays in PreLines.
		s.PreLines[len(s.PreLines)-1] = begin + ":"
		if ins, ok := tokenizeInstr(m, rest, startLine); ok {
			s.Region = append(s.Region, ins)
		}
	}
	for i := startLine + 1; i < endLine; i++ {
		text := stripComment(m, lines[i])
		label, rest := lineLabel(text)
		if rest == "" {
			if label != "" {
				// An intra-region label (conditional payloads): attach to
				// the next instruction.
				s.Region = append(s.Region, discovery.Instr{Labels: []string{label}, Line: i})
			}
			continue
		}
		ins, ok := tokenizeInstr(m, rest, i)
		if !ok {
			continue
		}
		if label != "" {
			ins.Labels = append(ins.Labels, label)
		}
		s.Region = append(s.Region, ins)
	}
	// Merge label-only placeholders into the following instruction.
	s.Region = mergeLabelPlaceholders(s.Region)
	if len(s.Region) == 0 {
		return fmt.Errorf("lexer: %s: empty region", s.Name)
	}
	return nil
}

func tokenizeInstr(m *discovery.Model, rest string, line int) (discovery.Instr, bool) {
	op, rawArgs := tokenizeLine(rest)
	if op == "" {
		return discovery.Instr{}, false
	}
	ins := discovery.Instr{Op: op, Raw: rest, Line: line}
	for _, a := range rawArgs {
		ins.Args = append(ins.Args, discovery.Operand{Text: a})
	}
	return ins, true
}

func mergeLabelPlaceholders(region []discovery.Instr) []discovery.Instr {
	var out []discovery.Instr
	var pending []string
	for _, ins := range region {
		if ins.Op == "" {
			pending = append(pending, ins.Labels...)
			continue
		}
		if len(pending) > 0 {
			ins.Labels = append(pending, ins.Labels...)
			pending = nil
		}
		out = append(out, ins)
	}
	if len(pending) > 0 && len(out) > 0 {
		// Trailing label: keep as a label on a synthetic empty op so the
		// region round-trips; rebuilding emits just the label line.
		out = append(out, discovery.Instr{Labels: pending, Op: ""})
	}
	return out
}

// Classify fills operand kinds using the discovered model (registers,
// literal syntax) and the label set of the sample's region.
func Classify(m *discovery.Model, s *discovery.Sample) {
	labels := map[string]bool{}
	for _, ins := range s.Region {
		for _, l := range ins.Labels {
			labels[l] = true
		}
	}
	// Labels defined outside the region (e.g. the End label) are also
	// branch targets.
	for _, l := range s.PostLines {
		if lab, _ := lineLabel(stripComment(m, l)); lab != "" {
			labels[lab] = true
		}
	}
	for _, l := range s.PreLines {
		if lab, _ := lineLabel(stripComment(m, l)); lab != "" {
			labels[lab] = true
		}
	}
	for i := range s.Region {
		for j := range s.Region[i].Args {
			classifyOperand(m, labels, &s.Region[i].Args[j])
		}
	}
}

func classifyOperand(m *discovery.Model, labels map[string]bool, a *discovery.Operand) {
	text := a.Text
	a.Regs = nil
	switch {
	case m.IsReg(text):
		a.Kind = discovery.KReg
		a.Regs = []string{text}
		a.ModeShape = "⟨r⟩"
		return
	}
	if v, ok := ParseLit(m, text); ok {
		a.Kind = discovery.KLit
		a.Lit = v
		a.ModeShape = "⟨n⟩"
		return
	}
	if labels[text] {
		a.Kind = discovery.KLabelRef
		a.Sym = text
		a.ModeShape = "⟨l⟩"
		return
	}
	// Composite operand: scan for embedded registers and literals.
	toks := subTokens(text)
	shape := text
	var foundReg bool
	var lit int64
	var hasLit bool
	for _, t := range toks {
		if m.IsReg(t.text) {
			foundReg = true
			a.Regs = append(a.Regs, t.text)
			shape = strings.Replace(shape, t.text, "⟨r⟩", 1)
		} else if v, ok := ParseLit(m, t.text); ok {
			hasLit = true
			lit = v
			shape = strings.Replace(shape, t.text, "⟨n⟩", 1)
		}
	}
	a.ModeShape = shape
	if foundReg {
		a.Kind = discovery.KMem
		if hasLit {
			a.Lit = lit
		}
		return
	}
	// No register: either a symbol reference or an unparsed token.
	a.Kind = discovery.KSym
	a.Sym = text
}

type subTok struct {
	text string
	pos  int
}

// subTokens finds register/literal-like runs inside a composite operand
// such as "-8(%ebp)", "[%fp-8]", "120($sp)", or "$z1".
func subTokens(text string) []subTok {
	var out []subTok
	i := 0
	for i < len(text) {
		c := text[i]
		if c == '%' || c == '$' || isWordByte(c) || c == '-' || c == '+' {
			j := i
			if c == '-' || c == '+' {
				j++
			}
			if j < len(text) && (text[j] == '%' || text[j] == '$') {
				j++
			}
			for j < len(text) && isWordByte(text[j]) {
				j++
			}
			if j > i {
				tok := strings.TrimPrefix(text[i:j], "+")
				// A bare sigil ('$', '%', '-') is not a token.
				if strings.ContainsAny(tok, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_") {
					out = append(out, subTok{text: tok, pos: i})
				}
				i = j
				continue
			}
		}
		i++
	}
	return out
}

// ParseLit parses an integer literal according to the discovered syntax.
func ParseLit(m *discovery.Model, text string) (int64, bool) {
	s := text
	if m.LitPrefix != "" && strings.HasPrefix(s, m.LitPrefix) {
		s = s[len(m.LitPrefix):]
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if s == "" {
		return 0, false
	}
	// Try hex first if discovered.
	if p, ok := m.LitBases[16]; ok && p != "" && strings.HasPrefix(s, p) {
		return parseBase(s[len(p):], 16, neg)
	}
	return parseBase(s, 10, neg)
}

// parseBase parses the digits s in base, negated when neg. It fails on
// any other byte and on a value that does not fit in an int64, whose
// magnitude may reach 1<<63 only when negated.
func parseBase(s string, base uint64, neg bool) (int64, bool) {
	if s == "" {
		return 0, false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		var d uint64
		switch {
		case s[i] >= '0' && s[i] <= '9':
			d = uint64(s[i] - '0')
		case s[i] >= 'a' && s[i] <= 'f':
			d = uint64(s[i]-'a') + 10
		case s[i] >= 'A' && s[i] <= 'F':
			d = uint64(s[i]-'A') + 10
		default:
			return 0, false
		}
		if d >= base || v > (limit-d)/base {
			return 0, false
		}
		v = v*base + d
	}
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}
