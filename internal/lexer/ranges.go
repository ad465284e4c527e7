package lexer

import (
	"fmt"
	"sort"
	"strings"

	"srcg/internal/discovery"
	"srcg/internal/pool"
)

// DiscoverImmRanges probes, for every instruction signature that carries a
// literal operand anywhere in the sample texts, the range of immediates the
// assembler accepts (paper §3.1: "On the SPARC, for example, we would
// detect that the add instruction's immediate operand is restricted to
// [-4096,4095]"). The probe substitutes values into a real occurrence and
// bisects on accept/reject.
func DiscoverImmRanges(rig *discovery.Rig, m *discovery.Model, texts []string) {
	if m.ImmRange == nil {
		m.ImmRange = map[string][2]int64{}
	}
	// Collect one bisection job per distinct signature in deterministic scan
	// order, then fan the independent bisections out over the probe pool.
	// Each job gets its own copy of the line slice: probeRange substitutes
	// into lines[li] in place, so sharing one slice across workers would
	// race.
	type job struct {
		key   string
		lines []string
		li    int
		tok   string
	}
	var jobs []job
	probed := map[string]bool{}
	for _, text := range texts {
		lines := strings.Split(text, "\n")
		for li, raw := range lines {
			clean := stripComment(m, raw)
			_, rest := lineLabel(clean)
			if rest == "" || strings.HasPrefix(rest, ".") {
				continue
			}
			op, args := tokenizeLine(rest)
			for ai, argText := range args {
				if _, isLit := ParseLit(m, argText); !isLit {
					continue
				}
				key := fmt.Sprintf("%s:%d", op, ai)
				if probed[key] {
					continue
				}
				probed[key] = true
				jobs = append(jobs, job{key, append([]string(nil), lines...), li, argText})
			}
		}
	}
	type found struct {
		lo, hi int64
		ok     bool
	}
	results := pool.RunRig(rig, len(jobs), func(i int, sub *discovery.Rig) found {
		j := jobs[i]
		lo, hi, ok := probeRange(sub, m, j.lines, j.li, j.tok)
		return found{lo, hi, ok}
	})
	for i, j := range jobs {
		if results[i].ok {
			m.ImmRange[j.key] = [2]int64{results[i].lo, results[i].hi}
		}
	}
}

// probeRange bisects the acceptable immediate range for the literal token
// tok on line li of the text. A position that rejects 0 yields [0,0],
// reported only if it accepts 1.
func probeRange(rig *discovery.Rig, m *discovery.Model, lines []string, li int, tok string) (lo, hi int64, ok bool) {
	accepts := func(v int64) bool {
		newLine, ok := replaceToken(lines[li], tok, fmt.Sprintf("%s%d", m.LitPrefix, v))
		if !ok {
			return false
		}
		old := lines[li]
		lines[li] = newLine
		text := strings.Join(lines, "\n")
		lines[li] = old
		return rig.Accepts(text)
	}
	const max32 = 1<<31 - 1
	const min32 = -1 << 31
	if !accepts(0) {
		return 0, 0, accepts(1)
	}
	hi = climb(accepts, max32)
	lo = -climb(func(v int64) bool { return accepts(-v) }, -min32)
	return lo, hi, true
}

// replaceToken replaces the first word-boundary occurrence of tok in line.
func replaceToken(line, tok, repl string) (string, bool) {
	idx := 0
	for {
		i := strings.Index(line[idx:], tok)
		if i < 0 {
			return "", false
		}
		i += idx
		var before, after byte = ' ', ' '
		if i > 0 {
			before = line[i-1]
		}
		if i+len(tok) < len(line) {
			after = line[i+len(tok)]
		}
		if !isWordByte(before) && !isWordByte(after) && before != '$' && before != '%' && before != '-' {
			return line[:i] + repl + line[i+len(tok):], true
		}
		idx = i + len(tok)
	}
}

// climb finds the largest accepted value in [0, limit], given that 0 is
// accepted: the cap first, then an exponential climb, then bisection. It
// assumes acceptance is downward closed; a range with a hole fools it
// (accepting 0..9 and 16..limit, it answers limit and never sees 10..15).
func climb(accepts func(int64) bool, limit int64) int64 {
	if accepts(limit) {
		return limit
	}
	good, bad := int64(0), limit
	for step := int64(1); good+step < bad; step *= 2 {
		if !accepts(good + step) {
			bad = good + step
			break
		}
		good += step
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

// DiscoverModes collects the distinct addressing-mode shapes observed
// across all classified samples.
func DiscoverModes(m *discovery.Model, samples []*discovery.Sample) {
	seen := map[string]bool{}
	for _, s := range samples {
		for _, ins := range s.Region {
			for _, a := range ins.Args {
				if a.Kind == discovery.KMem || a.Kind == discovery.KReg {
					if !seen[a.ModeShape] {
						seen[a.ModeShape] = true
						m.Modes = append(m.Modes, a.ModeShape)
					}
				}
			}
		}
	}
	sort.Strings(m.Modes)
}

// DescribeModel renders the discovered syntax facts for reports.
func DescribeModel(m *discovery.Model) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "architecture:   %s\n", m.Arch)
	fmt.Fprintf(&sb, "comment char:   %q\n", m.CommentChar)
	fmt.Fprintf(&sb, "literal prefix: %q\n", m.LitPrefix)
	bases := make([]int, 0, len(m.LitBases))
	for b := range m.LitBases {
		bases = append(bases, b)
	}
	sort.Ints(bases)
	for _, b := range bases {
		fmt.Fprintf(&sb, "literal base:   %d (prefix %q)\n", b, m.LitBases[b])
	}
	fmt.Fprintf(&sb, "registers:      %s\n", strings.Join(m.Registers, " "))
	fmt.Fprintf(&sb, "clobber:        %s\n", m.ClobberText)
	fmt.Fprintf(&sb, "word bits:      %d\n", m.WordBits)
	keys := make([]string, 0, len(m.ImmRange))
	for k := range m.ImmRange {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r := m.ImmRange[k]
		fmt.Fprintf(&sb, "imm range:      %-12s [%d,%d]\n", k, r[0], r[1])
	}
	for _, mode := range m.Modes {
		fmt.Fprintf(&sb, "mode:           %s\n", mode)
	}
	return sb.String()
}
