package mutate

import (
	"fmt"
	"slices"
	"sort"

	"srcg/internal/discovery"
)

// Analysis is the working state of the Preprocessor for one sample.
type Analysis struct {
	Sample *discovery.Sample
	Region []discovery.Instr // normalized, simplified region

	// Filler marks inert instructions the Preprocessor itself inserted
	// while normalizing delay slots; they carry no sample semantics.
	Filler map[int]bool
	// Slotted marks instructions followed by a delay slot (the next
	// instruction executes before the transfer).
	Slotted map[int]bool

	// Groups are execution units: [start,end) index ranges; a delay-slotted
	// transfer and its slot form one group.
	Groups [][2]int

	// Per register: liveness at group boundaries, def/read attributions.
	Live    map[string][]bool
	Reads   map[string][]int // register -> group indexes that read it
	Defs    map[string][]int // register -> group indexes that define it
	UseDefs map[string][]int // register -> group indexes that both read and define
	// ExternalIn lists registers whose value flows into the region from
	// outside (live at entry).
	ExternalIn []string

	// RegionPreElim is the region after delay-slot normalization but
	// before redundant-instruction elimination: call-convention templates
	// must keep instructions whose effect the sample cannot observe
	// (argument pushes that alias a variable's slot, stack cleanup).
	RegionPreElim []discovery.Instr

	// Hidden channels between groups (no shared register explains the
	// ordering constraint).
	Hidden []discovery.HiddenChannel

	Removed []int // original region indexes eliminated as redundant

	// AWriter is the region instruction index that writes the sample's
	// output cell (variable a), or -1 when nothing in the region does
	// (degenerate identity payloads). Filled by FindMemWriter.
	AWriter int
}

// Analyze runs the complete §4 preprocessing pipeline on a sample.
func (e *Engine) Analyze(s *discovery.Sample) (*Analysis, error) {
	a := &Analysis{
		Sample:  s,
		Region:  s.CloneRegion(),
		Filler:  map[int]bool{},
		Slotted: map[int]bool{},
		Live:    map[string][]bool{},
		Reads:   map[string][]int{},
		Defs:    map[string][]int{},
		UseDefs: map[string][]int{},
		AWriter: -1,
	}
	if err := e.CheckBaseline(s); err != nil {
		return nil, err
	}
	if err := e.normalizeDelaySlots(a); err != nil {
		return nil, err
	}
	a.RegionPreElim = discovery.CloneInstrs(a.Region)
	e.eliminateRedundant(a)
	a.rebuildGroups()
	e.scanRegisters(a)
	e.findHiddenChannels(a)
	return a, nil
}

// inertReg picks a register whose clobbering is inert for this sample: it
// does not occur in the region and clobbering it at region start preserves
// the output.
func (e *Engine) inertReg(s *discovery.Sample, region []discovery.Instr) (string, bool) {
	for _, r := range e.freshRegisters(region, 8) {
		if e.clobberSafe(s, region, r) {
			return r, true
		}
	}
	return "", false
}

// clobberSafe reports whether clobbering r at region start preserves the
// output under two random values. Both values are drawn before the first
// probe, so the random stream does not depend on which one breaks.
func (e *Engine) clobberSafe(s *discovery.Sample, region []discovery.Instr, r string) bool {
	for _, k := range e.clobberValues(2) {
		if !e.SameOutput(s, Insert(region, 0, e.ClobberInstr(r, k))) {
			return false
		}
	}
	return true
}

// normalizeDelaySlots detects delay-slot discipline behaviorally: inserting
// an inert instruction right after a transfer breaks the program only when
// the displaced instruction was executing in the transfer's delay slot
// (paper Fig. 4c). Detected pairs are rewritten into a slot-free shape:
// the slot instruction moves before the transfer and an inert filler takes
// the slot.
//
// Most samples have no slot, so one mutant first places a filler after
// every instruction at once; only when it breaks is each position probed
// alone. Each position's filler value is drawn before any probe, so the
// random stream does not depend on the verdicts.
func (e *Engine) normalizeDelaySlots(a *Analysis) error {
	defer e.enter(anDelay)()
	inert, ok := e.inertReg(a.Sample, a.Region)
	if !ok || len(a.Region) < 2 {
		return nil // no safe register, or one instruction: nothing detected
	}
	fills := make([]placed, len(a.Region)-1)
	for i := range fills {
		fills[i] = placed{i + 1, e.ClobberInstr(inert, e.clobberValues(1)[0])}
	}
	if e.groupSafe(anDelay, a.Sample, a.Region, fills) {
		return nil // no insertion is harmful: no meaningful slot
	}
	// The instruction at original position j sits at j+parked, past the
	// fillers already parked in earlier slots.
	parked := 0
	for j := 0; j < len(fills); j++ {
		i, fill := j+parked, fills[j].ins
		if e.sameWith(a.Sample, a.Region, []placed{{i + 1, fill}}) {
			continue // insertion after i is harmless: no meaningful slot
		}
		// The instruction at i+1 rides in i's delay slot. Move it before
		// i and park the inert filler in the slot.
		norm := discovery.CloneInstrs(a.Region)
		slot := norm[i+1]
		norm[i+1] = norm[i]
		norm[i] = slot
		norm = Insert(norm, i+2, fill)
		if !e.SameOutput(a.Sample, norm) {
			// Normalization hypothesis failed; leave as-is (the sample
			// will likely be discarded downstream, as in the paper).
			continue
		}
		a.Region = norm
		a.Slotted[i+1] = true
		a.Filler[i+2] = true
		parked++
		j++ // the slot instruction now precedes the transfer
	}
	return nil
}

// placed is an instruction to insert before position at of a region.
type placed struct {
	at  int
	ins discovery.Instr
}

// sameWith reports whether region, with each instruction of ins inserted
// before its position, reproduces the sample's output under every
// valuation. Positions index the unmodified region and ascend; the
// insertions run in descending order, so none shifts another's position.
// The mutant is only rendered, so region's instructions are shared.
func (e *Engine) sameWith(s *discovery.Sample, region []discovery.Instr, ins []placed) bool {
	mut := make([]discovery.Instr, len(region), len(region)+len(ins))
	copy(mut, region)
	for j := len(ins) - 1; j >= 0; j-- {
		mut = slices.Insert(mut, ins[j].at, ins[j].ins)
	}
	return e.SameOutput(s, mut)
}

// groupSafe group-tests two or more insertions: one mutant places them all
// and reports whether the output survives, counting a fallback of
// analysis when it does not, so the caller probes each alone. A single
// insertion is left to its own probe.
func (e *Engine) groupSafe(analysis string, s *discovery.Sample, region []discovery.Instr, ins []placed) bool {
	if len(ins) < 2 {
		return false
	}
	if e.sameWith(s, region, ins) {
		return true
	}
	e.Rig.Trace().Count(JointFallbackCounter(analysis), 1)
	return false
}

// eliminateRedundant removes instructions whose deletion — under register
// clobbering with two different value sets — preserves the output (paper
// §4.2, Fig. 6).
func (e *Engine) eliminateRedundant(a *Analysis) {
	defer e.enter(anRedundant)()
	s := a.Sample
	var safe []string
	stale := true
	for i := 0; i < len(a.Region); i++ {
		if a.Filler[i] || a.Slotted[i] || a.Region[i].Op == "" {
			continue
		}
		// Clobber every clobber-safe register with random values so the
		// deletion cannot succeed by accident (Fig. 6 c/d). The set
		// depends on the region alone, so only a deletion makes it stale.
		if stale {
			safe = e.safeClobberRegs(s, a.Region)
			stale = false
		}
		allAgree := true
		for variant := 0; variant < 2; variant++ {
			mut := Delete(a.Region, i)
			ks := e.clobberValues(len(safe))
			for j := len(safe) - 1; j >= 0; j-- {
				mut = Insert(mut, 0, e.ClobberInstr(safe[j], ks[j]))
			}
			if !e.SameOutput(s, mut) {
				allAgree = false
				break
			}
		}
		if allAgree {
			a.Removed = append(a.Removed, a.Region[i].Line)
			a.Region = Delete(a.Region, i)
			// Re-index bookkeeping past i.
			a.Filler = shiftSet(a.Filler, i)
			a.Slotted = shiftSet(a.Slotted, i)
			stale = true
			i--
		}
	}
}

func shiftSet(set map[int]bool, removed int) map[int]bool {
	out := map[int]bool{}
	for k, v := range set {
		if !v {
			continue
		}
		switch {
		case k < removed:
			out[k] = true
		case k > removed:
			out[k-1] = true
		}
	}
	return out
}

// safeClobberRegs returns the region's registers whose clobbering at region
// start (two variants) preserves the output — i.e. registers that are dead
// on entry and safe to randomize. Stack and frame pointers exclude
// themselves naturally.
func (e *Engine) safeClobberRegs(s *discovery.Sample, region []discovery.Instr) []string {
	defer e.enter(anSafeSet)()
	var out []string
	for _, r := range discovery.Registers(region) {
		if e.clobberSafe(s, region, r) {
			out = append(out, r)
		}
	}
	return out
}

// rebuildGroups forms execution units: a delay-slotted transfer plus its
// (filler) slot instruction is one unit.
func (a *Analysis) rebuildGroups() {
	a.Groups = nil
	for i := 0; i < len(a.Region); {
		if a.Slotted[i] && i+1 < len(a.Region) {
			a.Groups = append(a.Groups, [2]int{i, i + 2})
			i += 2
			continue
		}
		a.Groups = append(a.Groups, [2]int{i, i + 1})
		i++
	}
}

// GroupInstr returns the representative instruction of group g (the
// transfer for slotted groups, skipping known filler).
func (a *Analysis) GroupInstr(g int) *discovery.Instr {
	span := a.Groups[g]
	for i := span[0]; i < span[1]; i++ {
		if !a.Filler[i] {
			return &a.Region[i]
		}
	}
	return &a.Region[span[0]]
}

// groupPos is the region index of the boundary before group g
// (g == len(Groups) is the region's end).
func (a *Analysis) groupPos(g int) int {
	if g < len(a.Groups) {
		return a.Groups[g][0]
	}
	return len(a.Region)
}

// insertAtGroup inserts an instruction at the boundary before group g
// (g == len(Groups) appends at the end).
func (a *Analysis) insertAtGroup(g int, ins discovery.Instr) []discovery.Instr {
	return Insert(a.Region, a.groupPos(g), ins)
}

// scanRegisters performs the clobber-scan liveness analysis and the
// implicit-argument attributions of §4.4/§4.5 for every register of
// interest.
//
// A boundary is dead when clobbering the register there preserves the
// output under fixedClobber, its negation and a random value of the
// boundary's own: sign-diverse garbage, since a register consumed only by
// a comparison may keep the branch direction for same-sign garbage. Each
// boundary is probed alone with fixedClobber. The boundaries that survive
// it are almost always dead, so each later value is group-tested: one
// mutant clobbers all of them at once, and only when it breaks is each
// probed alone (adaptive group testing, as in delta debugging).
func (e *Engine) scanRegisters(a *Analysis) {
	defer e.enter(anScan)()
	s := a.Sample
	n := len(a.Groups) + 1
	// clobbers places a clobber of reg with k(g) at each boundary g of gs.
	clobbers := func(reg string, gs []int, k func(g int) int64) []placed {
		ins := make([]placed, len(gs))
		for j, g := range gs {
			ins[j] = placed{a.groupPos(g), e.ClobberInstr(reg, k(g))}
		}
		return ins
	}
	for _, reg := range discovery.Registers(a.Region) {
		// Drawn before any probe, so the random stream does not depend
		// on the verdicts.
		rnd := make([]int64, n)
		for g := range rnd {
			rnd[g] = e.clobberValues(1)[0]
		}
		dead := make([]int, 0, n)
		for g := 0; g < n; g++ {
			dead = append(dead, g)
		}
		for i, k := range []func(int) int64{
			func(int) int64 { return fixedClobber },
			func(int) int64 { return -fixedClobber },
			func(g int) int64 { return rnd[g] },
		} {
			// The first value probes each boundary alone: many are live.
			if i > 0 && e.groupSafe(anScan, s, a.Region, clobbers(reg, dead, k)) {
				continue
			}
			dead = slices.DeleteFunc(dead, func(g int) bool {
				return !e.sameWith(s, a.Region, clobbers(reg, []int{g}, k))
			})
		}
		live := make([]bool, n)
		for g := range live {
			live[g] = !slices.Contains(dead, g)
		}
		a.Live[reg] = live
		// A register that breaks everywhere (stack/frame pointer: even the
		// entry clobber fails) cannot be analyzed this way.
		if len(dead) == 0 {
			continue
		}
		if live[0] {
			a.ExternalIn = append(a.ExternalIn, reg)
		}
		e.attribute(a, reg, live)
	}
}

// attribute turns a liveness profile into def/read/use-def facts:
//
//	live[g]=false, live[g+1]=true  ⇒ group g defines reg
//	live[g]=true,  live[g+1]=false ⇒ group g reads reg (last reader)
//
// Middle groups of a live interval are resolved with the clobber+repair
// mutation (clobber before the group, re-establish the definition right
// after it: output changes iff the group itself consumed the value), and
// redefinitions inside an interval with the copy-of-definition probe
// (re-running the definition after a group breaks iff someone replaced the
// value since).
func (e *Engine) attribute(a *Analysis, reg string, live []bool) {
	defer e.enter(anAttribute)()
	s := a.Sample
	n := len(a.Groups)
	markRead := func(g int) { a.Reads[reg] = appendUnique(a.Reads[reg], g) }
	markDef := func(g int) { a.Defs[reg] = appendUnique(a.Defs[reg], g) }

	for start := 0; start <= n; start++ {
		if !live[start] || (start > 0 && live[start-1]) {
			continue // not the beginning of a live interval
		}
		end := start
		for end < n && live[end+1] {
			end++
		}
		// Interval: live at boundaries [start..end]; def by group start-1
		// (or external), last reader group end.
		var defGroup = -1
		if start > 0 {
			defGroup = start - 1
			markDef(defGroup)
		}
		if end < n {
			markRead(end)
		}
		// Resolve middle groups start..end-1 (readers) and redefinitions.
		// Both probes need a *repair*: an instruction that re-establishes
		// the defined value at a later point. Two strategies:
		//   1. a clobber with the value itself — the Generator knows its
		//      hidden initialization values, so it tries them;
		//   2. a copy of the defining instruction, valid only when its
		//      sources cannot have changed (no register operands besides
		//      reg itself).
		if defGroup < 0 {
			continue
		}
		repair, allVals, ok := e.findRepair(a, reg, defGroup, start)
		if !ok {
			continue
		}
		// A def-copy repair is valuation-independent, so its probes may
		// check every valuation — this catches redefinitions whose effect
		// coincides with the expected output under the base valuation
		// alone (x86 idivl's %edx when the remainder happens to equal
		// cltd's sign extension). Constant-clobber repairs carry a
		// base-valuation constant and stay on the base valuation.
		same := func(mut []discovery.Instr) bool {
			if allVals {
				return e.SameOutput(s, mut)
			}
			return e.SameOutputVal(s, mut, 0)
		}
		redefAt := -1
		for g := start; g <= end && end < n; g++ {
			// Repair probe: re-establish reg's defined value after group
			// g; breakage means someone replaced the value in between.
			if !same(a.insertAtGroup(g+1, repair)) {
				redefAt = g
				break
			}
		}
		if redefAt >= 0 {
			markDef(redefAt)
			if live[redefAt] {
				// The redefining group also consumed the old value.
				a.UseDefs[reg] = appendUnique(a.UseDefs[reg], redefAt)
				markRead(redefAt)
			}
		}
		// Middle readers before the redefinition point: clobber before the
		// group, repair right after it — only the group itself ever sees
		// the garbage.
		limit := end
		if redefAt >= 0 {
			limit = redefAt
		}
		for g := start; g < limit; g++ {
			// Sign-diverse garbage: consumers like the x86's cltd only
			// observe the sign, so a single clobber value can miss them.
			r := e.clobberValues(1)[0]
			for _, k := range []int64{fixedClobber, -fixedClobber, r} {
				withClobber := a.insertAtGroup(g, e.ClobberInstr(reg, k))
				// Repair after group g: indexes shift by one after insertion.
				pos := len(withClobber)
				if g+1 < len(a.Groups) {
					pos = a.Groups[g+1][0] + 1
				}
				if !same(Insert(withClobber, pos, repair)) {
					markRead(g)
					break
				}
			}
		}
	}
}

// findRepair builds an instruction that re-establishes reg's value as
// defined by defGroup, verified by inserting it immediately after the
// definition (position start) and observing unchanged behavior.
// The second result reports whether the repair is valuation-independent
// (a copy of the defining instruction) as opposed to a constant drawn from
// the base valuation.
func (e *Engine) findRepair(a *Analysis, reg string, defGroup, start int) (discovery.Instr, bool, bool) {
	s := a.Sample
	// Strategy 1: the value is one of the sample's hidden constants. The
	// candidate must survive with reg pre-trashed — that proves the
	// template establishes the value regardless of the register's prior
	// contents (an accumulating clobber template would only pass when the
	// insertion happens to be a no-op, e.g. add $0).
	pos := len(a.Region)
	if start < len(a.Groups) {
		pos = a.Groups[start][0]
	}
	trash := e.ClobberInstr(reg, 714253)
	tried := map[int64]bool{}
	tryConst := func(v int64) (discovery.Instr, bool) {
		if tried[v] {
			return discovery.Instr{}, false
		}
		tried[v] = true
		clob := e.ClobberInstr(reg, v)
		mut := Insert(a.insertAtGroup(start, clob), pos, trash)
		return clob, e.SameOutputVal(s, mut, 0)
	}
	for _, v := range []int64{s.B, s.C, s.A0, s.K} {
		if clob, ok := tryConst(v); ok {
			return clob, false, true
		}
	}
	// Strategy 2: re-run the defining instruction, if its sources are
	// stable (no register operands other than reg; memory bases like the
	// frame pointer do not change inside a region). Preferred over an
	// Expect-valued constant because a copy is valid under every
	// valuation.
	span := a.Groups[defGroup]
	if span[1]-span[0] == 1 && !a.Slotted[span[0]] {
		def := discovery.CloneInstrs(a.Region[span[0]:span[1]])[0]
		def.Labels = nil
		stable := true
		for _, arg := range def.Args {
			if arg.Kind == discovery.KReg && arg.Regs[0] != reg {
				stable = false
			}
		}
		if stable && e.SameOutput(s, a.insertAtGroup(start, def)) {
			return def, true, true
		}
	}
	// Last resort: the expected output itself. Such a repair is
	// self-masking for redefinition scans (re-creating the final answer
	// anywhere before the output store looks like a no-op), so it only
	// comes into play when nothing else verifies.
	if clob, ok := tryConst(s.Expect); ok {
		return clob, false, true
	}
	return discovery.Instr{}, false, false
}

func appendUnique(xs []int, x int) []int {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// findHiddenChannels looks for ordering constraints between adjacent group
// pairs that no visible value flow explains: after renaming away
// write-after-read and write-after-write hazards, swapping the pair still
// breaks the program — the paper's hidden-register communication class
// (MIPS hi/lo, §7.1).
func (e *Engine) findHiddenChannels(a *Analysis) {
	defer e.enter(anHidden)()
	s := a.Sample
	reads := func(reg string, g int) bool {
		for _, x := range a.Reads[reg] {
			if x == g {
				return true
			}
		}
		return false
	}
	defines := func(reg string, g int) bool {
		for _, x := range a.Defs[reg] {
			if x == g {
				return true
			}
		}
		return false
	}
pairs:
	for g1 := 0; g1 < len(a.Groups)-1; g1++ {
		g2 := g1 + 1
		i1, i2 := a.Groups[g1], a.Groups[g2]
		if i1[1]-i1[0] != 1 || i2[1]-i2[0] != 1 {
			continue
		}
		// Control transfers order their neighbors by *control*, not by a
		// hidden value: swapping across a branch changes which
		// instructions execute at all. Only data-only pairs qualify.
		if hasControlFlow(&a.Region[i1[0]]) || hasControlFlow(&a.Region[i2[0]]) {
			continue
		}
		base := discovery.CloneInstrs(a.Region)
		// Sorted: which register first triggers a rename (and the probe
		// sequence SameOutput issues) must not follow map order.
		liveRegs := make([]string, 0, len(a.Live))
		for reg := range a.Live {
			liveRegs = append(liveRegs, reg)
		}
		sort.Strings(liveRegs)
		for _, reg := range liveRegs {
			switch {
			case defines(reg, g1) && (reads(reg, g2) || a.Region[i2[0]].UsesReg(reg)):
				// Read-after-write: a visible value flows g1→g2; ordering
				// is explained.
				continue pairs
			case defines(reg, g2) && (reads(reg, g1) || defines(reg, g1) || a.Region[i1[0]].UsesReg(reg)):
				// Anti/output dependency: rename g2's target register (and
				// every later reference) to a fresh one so the hazard
				// disappears. Several candidates are tried — hardwired
				// registers ($0, %g0) fail the sanity check below.
				var idxs []int
				for i := i2[0]; i < len(base); i++ {
					idxs = append(idxs, i)
				}
				ok := false
				for _, fresh := range e.freshRegisters(base, 6) {
					cand := RenameAt(base, idxs, reg, fresh)
					if e.SameOutput(s, cand) {
						base = cand
						ok = true
						break
					}
				}
				if !ok {
					continue pairs
				}
			}
		}
		swapped := discovery.CloneInstrs(base)
		swapped[i1[0]], swapped[i2[0]] = swapped[i2[0]], swapped[i1[0]]
		if !e.SameOutput(s, swapped) {
			a.Hidden = append(a.Hidden, discovery.HiddenChannel{
				From: g1, To: g2, Tag: fmt.Sprintf("hidden%d", len(a.Hidden)+1),
			})
		}
	}
}

// hasControlFlow reports whether the instruction transfers control (label
// reference or external-symbol target) or is an empty label placeholder.
func hasControlFlow(ins *discovery.Instr) bool {
	if ins.Op == "" {
		return true
	}
	for _, a := range ins.Args {
		if a.Kind == discovery.KLabelRef {
			return true
		}
	}
	return false
}

// touches reports whether group g reads, defines, or explicitly mentions
// the register.
func (a *Analysis) touches(reg string, g int) bool {
	for _, x := range a.Reads[reg] {
		if x == g {
			return true
		}
	}
	for _, x := range a.Defs[reg] {
		if x == g {
			return true
		}
	}
	span := a.Groups[g]
	for i := span[0]; i < span[1]; i++ {
		if a.Region[i].UsesReg(reg) {
			return true
		}
	}
	return false
}

// DetectHardwired finds registers with immutable values (SPARC %g0, MIPS
// $0, Alpha $31) — the feature the paper lists as unimplemented (§7.2).
// The probe renames the move sample's data path onto each candidate: if
// the program then prints the same constant under every valuation, writes
// to the register are discarded and reads yield that constant.
func (e *Engine) DetectHardwired(a *Analysis) map[string]int64 {
	defer e.enter(anHardwired)()
	out := map[string]int64{}
	// The data-path register of the move sample: the first plain register
	// operand (memory-operand base registers do not qualify).
	path := ""
	for _, ins := range a.Region {
		for _, arg := range ins.Args {
			if arg.Kind == discovery.KReg && path == "" {
				path = arg.Regs[0]
			}
		}
	}
	if path == "" {
		return out // a memory-to-memory machine (VAX): nothing to probe
	}
	for _, cand := range e.Model.Registers {
		if cand == path {
			continue
		}
		mut := discovery.CloneInstrs(a.Region)
		for i := range mut {
			mut[i].RenameReg(path, cand)
		}
		m := e.build(a.Sample, mut)
		var value int64
		hard := true
		for vi := 0; vi < a.Sample.NumValuations(); vi++ {
			outStr, err := e.run(m, a.Sample.Valuation(vi).InitSource, "")
			if err != nil {
				hard = false
				break
			}
			var v int64
			if _, err := fmt.Sscanf(outStr, "%d", &v); err != nil {
				hard = false
				break
			}
			if vi == 0 {
				value = v
			} else if v != value {
				hard = false
				break
			}
			// A normal register prints the moved value b.
			if v == a.Sample.Valuation(vi).B {
				hard = false
				break
			}
		}
		if hard {
			out[cand] = value
		}
	}
	return out
}
