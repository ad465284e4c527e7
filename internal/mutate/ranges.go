package mutate

import "srcg/internal/discovery"

// LiveRange is one live range of a register's explicit references.
type LiveRange struct {
	Reg   string
	Refs  []int // instruction indexes (into the normalized region)
	Valid bool  // rename+clobber succeeded: the range contains its definition
}

// SplitLiveRanges performs the paper's §4.3 live-range splitting (Fig. 7)
// for one register: regions of references are grown backwards from each
// last use until renaming the region's references to a fresh, clobbered
// register preserves the program's behavior. A range that never validates
// reaches the region start with Valid=false — the signature of a value
// defined implicitly (e.g. a call result), handed to §4.4.
func (e *Engine) SplitLiveRanges(a *Analysis, reg string) []LiveRange {
	defer e.enter(anRanges)()
	var refs []int
	for i, ins := range a.Region {
		if a.Filler[i] {
			continue
		}
		if ins.UsesReg(reg) {
			refs = append(refs, i)
		}
	}
	var ranges []LiveRange
	hi := len(refs) - 1
	for hi >= 0 {
		found := false
		for lo := hi; lo >= 0; lo-- {
			if e.renameWorks(a, reg, refs[lo:hi+1]) {
				ranges = append(ranges, LiveRange{Reg: reg, Refs: refs[lo : hi+1], Valid: true})
				hi = lo - 1
				found = true
				break
			}
		}
		if !found {
			// No backward growth validates: the value consumed here was
			// defined implicitly (a call result, a hidden register). The
			// reference gets a singleton range and §4.4 finds its definer.
			ranges = append(ranges, LiveRange{Reg: reg, Refs: refs[hi : hi+1], Valid: false})
			hi--
		}
	}
	// Reverse into program order.
	for i, j := 0, len(ranges)-1; i < j; i, j = i+1, j-1 {
		ranges[i], ranges[j] = ranges[j], ranges[i]
	}
	return ranges
}

// renameWorks tests whether renaming reg to a fresh register in exactly the
// given instructions — with the fresh register clobbered just prior to the
// proposed region, run with two different clobber values (§4.3: "To make
// the test completely reliable...") — preserves the output. Replacement
// registers that the assembler rejects do not count as evidence.
func (e *Engine) renameWorks(a *Analysis, reg string, idxs []int) bool {
	s := a.Sample
	for _, r2 := range e.freshRegisters(a.Region, 3) {
		ok := true
		applicable := true
		for _, k := range e.clobberValues(2) {
			mut := RenameAt(a.Region, idxs, reg, r2)
			mut = Insert(mut, idxs[0], e.ClobberInstr(r2, k))
			m := e.build(s, mut)
			if m.err != nil {
				applicable = false // register class mismatch, not semantics
				break
			}
			if !e.sameAll(m) {
				ok = false
				break
			}
		}
		if applicable && ok {
			return true
		}
	}
	return false
}

// ClassifyRefs implements the paper's §4.5 (Fig. 9) definition/use
// computation for one validated live range: the first reference is a
// definition and the last a use; each intermediate reference is probed by
// duplicating the defining chain into a fresh register and redirecting the
// reference to it — behavior is preserved iff the reference is a pure use.
func (e *Engine) ClassifyRefs(a *Analysis, rng LiveRange) []discovery.RegUse {
	defer e.enter(anRanges)()
	out := make([]discovery.RegUse, len(rng.Refs))
	if len(rng.Refs) == 0 {
		return out
	}
	out[0] = discovery.DefPure
	if len(rng.Refs) == 1 {
		return out
	}
	out[len(rng.Refs)-1] = discovery.UsePure

	chain := []int{rng.Refs[0]} // instructions duplicated into the R2 chain
	for i := 1; i < len(rng.Refs)-1; i++ {
		if e.pureUse(a, rng.Reg, chain, rng.Refs[i]) {
			out[i] = discovery.UsePure
		} else {
			out[i] = discovery.UseDef
			chain = append(chain, rng.Refs[i])
		}
	}
	return out
}

// pureUse builds the Fig. 9 mutant: duplicates of every chain instruction
// (renamed to a fresh register R2) follow their originals, and the probe
// instruction's reference is redirected to R2. If the probe is a pure use
// it reads the same value from R2 and the output is unchanged; a
// use-definition strands its result in R2 and breaks the original chain.
func (e *Engine) pureUse(a *Analysis, reg string, chain []int, probe int) bool {
	for _, r2 := range e.freshRegisters(a.Region, 3) {
		mut := discovery.CloneInstrs(a.Region)
		// Insert duplicates after each chain instruction, back to front so
		// indexes stay valid.
		for c := len(chain) - 1; c >= 0; c-- {
			dup := discovery.CloneInstrs(mut[chain[c] : chain[c]+1])[0]
			dup.Labels = nil
			dup.RenameReg(reg, r2)
			mut = Insert(mut, chain[c]+1, dup)
		}
		// The probe index shifted by the number of insertions before it.
		shift := 0
		for _, c := range chain {
			if c < probe {
				shift++
			}
		}
		mut[probe+shift].RenameReg(reg, r2)
		m := e.build(a.Sample, mut)
		if m.err != nil {
			continue // class mismatch: try another register
		}
		return e.sameAll(m)
	}
	// No applicable replacement register: conservatively call it a use-def.
	return false
}
