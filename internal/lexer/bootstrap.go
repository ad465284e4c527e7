package lexer

import (
	"fmt"

	"srcg/internal/discovery"
	"srcg/internal/enquire"
	"srcg/internal/obs"
)

// Bootstrap runs the complete syntax-discovery phase: it probes the
// assembler's surface syntax, compiles all samples, extracts and
// classifies their regions, discovers the register set and a clobber
// template, probes immediate ranges, collects addressing-mode shapes, and
// measures the integer width. On return the model is ready for mutation
// analysis.
func Bootstrap(rig *discovery.Rig, samples []*discovery.Sample) (*discovery.Model, error) {
	m := &discovery.Model{Arch: rig.TC.Name()}

	base, err := rig.CompileAsm("main(){}")
	if err != nil {
		return nil, fmt.Errorf("lexer: compiling main(){}: %w", err)
	}
	litAsm, err := rig.CompileAsm("main(){int a=1235;}")
	if err != nil {
		return nil, fmt.Errorf("lexer: compiling literal probe: %w", err)
	}
	if err := ProbeSyntax(rig, m, base, litAsm); err != nil {
		return nil, err
	}

	rig.Trace().Count(discovery.CtrSamples, int64(len(samples)))
	texts := make([]string, 0, len(samples)+1)
	for _, s := range samples {
		text, err := rig.CompileAsm(s.CSource)
		if err != nil {
			return nil, fmt.Errorf("lexer: compiling %s: %w", s.Name, err)
		}
		s.FullAsm = text
		texts = append(texts, text)
		if err := Extract(m, s); err != nil {
			return nil, err
		}
	}
	// The initializer and helper units are compiler output too — scan them
	// as well (they are where callee-side conventions like the VAX argument
	// pointer show up).
	for _, src := range []string{samples[0].InitSource, samples[0].HelperSource} {
		if text, err := rig.CompileAsm(src); err == nil {
			texts = append(texts, text)
		}
	}

	if err := DiscoverRegisters(rig, m, texts); err != nil {
		return nil, err
	}
	for _, s := range samples {
		Classify(m, s)
	}
	if err := DiscoverClobber(rig, m, samples); err != nil {
		return nil, err
	}
	// Immediate-range discovery is the assembler-bisection workload —
	// pure accept/reject probing against the assembler — so it gets its
	// own span nested inside the bootstrap phase.
	_ = rig.Trace().Phase(obs.PhaseAssemblerBisection, func() error {
		DiscoverImmRanges(rig, m, texts)
		return nil
	})
	DiscoverModes(m, samples)

	bits, err := enquire.WordBits(rig)
	if err != nil {
		return nil, err
	}
	m.WordBits = bits
	return m, nil
}
