package synth

import (
	"strings"

	"srcg/internal/discovery"
)

// deriveChains looks for addressing-mode chain rules (Fig. 15 b/c): a
// displacement mode with its constant specialized to 0 coinciding with the
// stripped (register-indirect) form. The check is purely behavioral: two
// mutants of the move sample whose source operand is rewritten to each
// form must assemble and produce identical output — whatever cell they
// now read, they read the same one.
func (in Input) deriveChains(s *Spec) {
	smp, ok := in.Samples["int.move.b"]
	if !ok {
		return
	}
	a, ok := in.Analyses["int.move.b"]
	if !ok {
		return
	}
	raw, err := in.rawSlot(in.Slots.B)
	if err != nil {
		return
	}
	_, pattern, err := splitSlot(raw)
	if err != nil {
		return
	}
	zeroForms := []string{
		renderPattern(pattern, "0"),
		renderPattern(pattern, "+0"),
	}
	stripped := strippedForm(pattern)

	rewrite := func(form string) ([]discovery.Instr, bool) {
		region := discovery.CloneInstrs(a.Region)
		found := false
		for i := range region {
			for j := range region[i].Args {
				if region[i].Args[j].Text == raw {
					region[i].Args[j].Text = form
					found = true
				}
			}
		}
		return region, found
	}
	outOf := func(form string) (string, bool) {
		region, found := rewrite(form)
		if !found {
			return "", false
		}
		out, err := in.Engine.OutputOf(smp, region)
		if err != nil {
			return "", false
		}
		return out, true
	}

	strippedOut, okStripped := outOf(stripped)
	if !okStripped {
		return
	}
	for _, zf := range zeroForms {
		if zo, ok := outOf(zf); ok && zo == strippedOut {
			dispMode := strings.ReplaceAll(renderShape(pattern, "⟨n⟩"), "%", "%")
			regMode := renderShape(strippedPattern(pattern), "")
			s.Chains = append(s.Chains, ChainRule{ModeA: dispMode, ModeB: regMode, Constant: 0})
			return
		}
	}
}

// renderPattern instantiates a splitSlot pattern with a literal string in
// place of the %d verb.
func renderPattern(pattern, num string) string {
	p := strings.Replace(pattern, "%d", "\x00", 1)
	p = strings.ReplaceAll(p, "%%", "%")
	return strings.Replace(p, "\x00", num, 1)
}

// strippedForm removes the displacement (and its sign) from the pattern.
func strippedForm(pattern string) string {
	return renderPattern(strippedPattern(pattern), "")
}

// strippedPattern removes the %d verb and any directly preceding sign.
func strippedPattern(pattern string) string {
	i := strings.Index(pattern, "%d")
	if i < 0 {
		return pattern
	}
	j := i
	for j > 0 && (pattern[j-1] == '-' || pattern[j-1] == '+') {
		j--
	}
	return pattern[:j] + "%d" + pattern[i+2:]
}

// renderShape renders a mode shape for documentation (⟨n⟩ marker in place
// of the displacement).
func renderShape(pattern, marker string) string {
	return renderPattern(pattern, marker)
}
