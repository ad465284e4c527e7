package extract

import (
	"container/heap"
	"sort"

	"srcg/internal/dfg"
	"srcg/internal/discovery"
	"srcg/internal/obs"
	"srcg/internal/sem"
)

// Telemetry names the extractor maintains on its tracer. The search-cost
// counters are the discovery.* names Rig.Stats() views, so the extractor
// and Report() share one race-free tally.
const (
	// CtrCandidatesTried counts reverse-interpretation candidates run.
	CtrCandidatesTried = discovery.CtrCandidatesTried
	// HistCandidatesPerSolve is the histogram of candidates one solve
	// attempt consumed — the shape of the paper's search-cost story.
	HistCandidatesPerSolve = "extract.candidates_per_solve"
)

// Extractor runs the reverse interpretation search (§5.2.1–5.2.2): a
// probabilistic best-first enumeration of semantic interpretations, sample
// by sample, with already-fixed semantics carried forward (Fig. 13 solves
// mul given lw/sw/d-mode already known).
type Extractor struct {
	Bits    int
	W       Weights
	MBoosts map[string]map[string]float64
	// SignedShifts admits the signed-count shift primitive (ash) to the
	// candidate vocabulary. This is an extension beyond the paper: with it
	// the VAX's bidirectional ashl — which the paper reports as unhandled
	// (§5.2.3) — becomes expressible as one tree.
	SignedShifts bool

	Sems   map[string]*sem.Sem
	solved []*dfg.Graph
	all    []*dfg.Graph

	// retractions counts conflict-driven un-commits (bounded to keep the
	// search from oscillating).
	retractions int
	// gens counts each signature's commits and retractions; a sample's
	// stamp, their sum over its steps, grows whenever one of them changes.
	gens map[string]int

	// Tr, when non-nil, receives telemetry: the candidates-tried counter
	// and the per-solve candidate-cost histogram. A nil tracer is a no-op.
	Tr *obs.Tracer

	// checkMemo, when non-nil, sees every combination the search judges:
	// the memo's verdict and the trial it stands for (tests hold it to run).
	checkMemo func(g *dfg.Graph, m *memo, trial trialSems, explains bool)
}

// budget bounds candidates tried per search — the paper's timeout ("a
// time-out function interrupts the interpreter and the sample is
// discarded").
const budget = 30000

// New creates an extractor with default settings. Search-effort counters
// land on Tr (set it after construction; a nil tracer still accepts them
// as no-ops).
func New(bits int, w Weights, mboosts map[string]map[string]float64) *Extractor {
	return &Extractor{
		Bits:    bits,
		W:       w,
		MBoosts: mboosts,
		Sems:    map[string]*sem.Sem{},
		gens:    map[string]int{},
	}
}

// Outcome reports what happened to each sample.
type Outcome struct {
	Solved []string
	Failed []string
}

// SolveAll processes all graphs, iterating until no further sample can be
// solved. Samples whose search exhausts its budget are discarded, as in
// the paper (§5.2.2). A sample that becomes fully decidable but evaluates
// wrongly exposes a conflicting earlier interpretation (§5.2.1: samples
// "will allow several conflicting interpretations"); its signatures are
// retracted — bounded — and everything depending on them re-solves
// jointly.
//
// A sample none of whose candidates explained it is not searched again
// until one of its signatures is committed or retracted: such a verdict
// depends on nothing else, so the search would only repeat itself.
func (x *Extractor) SolveAll(graphs []*dfg.Graph) Outcome {
	remaining := append([]*dfg.Graph(nil), graphs...)
	x.all = graphs
	exhausted := map[*dfg.Graph]int{} // the sample's stamp when it exhausted
	var out Outcome
	for {
		sort.SliceStable(remaining, func(i, j int) bool {
			return len(x.missing(remaining[i])) < len(x.missing(remaining[j]))
		})
		progress := false
		var next []*dfg.Graph
		for _, g := range remaining {
			if stamp, ok := exhausted[g]; ok && stamp == x.stamp(g) {
				next = append(next, g)
				continue
			}
			before := x.Tr.Counter(CtrCandidatesTried)
			verdict := x.solve(g)
			x.Tr.Observe(HistCandidatesPerSolve, x.Tr.Counter(CtrCandidatesTried)-before)
			switch verdict {
			case solveOK:
				out.Solved = append(out.Solved, g.Sample.Name)
				x.solved = append(x.solved, g)
				progress = true
			case solveConflict:
				if x.retract(g) {
					progress = true
					// Re-queue everything that was un-solved.
					next = append(next, g)
					var stillSolved []*dfg.Graph
					kept := out.Solved[:0]
					for _, sg := range x.solved {
						if len(x.missing(sg)) > 0 {
							next = append(next, sg)
							continue
						}
						stillSolved = append(stillSolved, sg)
						kept = append(kept, sg.Sample.Name)
					}
					x.solved = stillSolved
					out.Solved = kept
				} else {
					next = append(next, g)
				}
			case solveRetry:
				next = append(next, g)
			case solveExhausted:
				exhausted[g] = x.stamp(g)
				next = append(next, g)
			case solveFail:
				next = append(next, g) // keep for later passes; may untangle
			}
		}
		remaining = next
		if !progress {
			break
		}
	}
	for _, g := range remaining {
		out.Failed = append(out.Failed, g.Sample.Name)
		x.Tr.Count(discovery.CtrTimeouts, 1)
	}
	return out
}

// retract un-commits the semantics of every signature a conflicting sample
// uses, so the conflict joins the next joint search. Bounded to avoid
// oscillation.
func (x *Extractor) retract(g *dfg.Graph) bool {
	if x.retractions >= 24 {
		return false
	}
	removed := false
	for i := range g.Steps {
		sig := g.Steps[i].Sig
		if _, ok := x.Sems[sig]; ok {
			x.commit(sig, nil)
			removed = true
		}
	}
	if removed {
		x.retractions++
	}
	return removed
}

// commit sets (or, with s nil, retracts) sig's semantics and advances its
// generation.
func (x *Extractor) commit(sig string, s *sem.Sem) {
	if s == nil {
		delete(x.Sems, sig)
	} else {
		x.Sems[sig] = s
	}
	x.gens[sig]++
}

// stamp sums the generations of g's steps' signatures.
func (x *Extractor) stamp(g *dfg.Graph) int {
	n := 0
	for i := range g.Steps {
		n += x.gens[g.Steps[i].Sig]
	}
	return n
}

type solveResult int

const (
	solveOK solveResult = iota
	solveFail
	solveRetry
	solveConflict // fully decidable but evaluates wrongly
	// solveExhausted is a failure no candidate explained g in: it depends
	// only on the semantics of g's own signatures.
	solveExhausted
)

// need is one signature requiring (more) semantics for a graph.
type need struct {
	sig  string
	step *dfg.Step
}

// missing lists the signatures of g that lack complete semantics.
func (x *Extractor) missing(g *dfg.Graph) []need {
	var out []need
	seen := map[string]bool{}
	for i := range g.Steps {
		st := &g.Steps[i]
		if !seen[st.Sig] && !complete(st, x.Sems[st.Sig]) {
			seen[st.Sig] = true
			out = append(out, need{sig: st.Sig, step: st})
		}
	}
	return out
}

// complete reports whether s is everything evaluating step st needs: the
// semantics exist, every output port has a tree, and a branch with no
// outputs has a condition.
func complete(st *dfg.Step, s *sem.Sem) bool {
	if s == nil {
		return false
	}
	for _, p := range st.Outs {
		if s.Outs[p.Key()] == nil {
			return false
		}
	}
	return st.Target == "" || len(st.Outs) > 0 || s.Cond != nil
}

// solve attempts one sample.
func (x *Extractor) solve(g *dfg.Graph) solveResult {
	needs := x.missing(g)
	if len(needs) == 0 {
		ok, err := Run(g, x.Sems, x.Bits)
		if ok && err == nil {
			x.Tr.Count(discovery.CtrSolvedByMatch, 1) // solved without new search
			return solveOK
		}
		if err != nil {
			// The committed semantics cannot even be evaluated on this
			// graph. Before discarding, attempt a recovery search: the
			// committed interpretation may be a special case of a more
			// general one that covers both (the VAX ashl committed as a
			// plain left shift by the positive-literal samples, where the
			// signed-count shift explains the negative-literal ones too).
			// Replacements must still satisfy every solved graph.
			needs = x.allSigs(g)
			if len(needs) > 3 {
				return solveExhausted
			}
			return x.search(g, needs, true)
		}
		return solveConflict
	}
	if len(needs) > 3 {
		return solveRetry // too underconstrained this pass
	}
	return x.search(g, needs, false)
}

// allSigs lists every distinct signature of g as a need, complete or not —
// the recovery search's working set.
func (x *Extractor) allSigs(g *dfg.Graph) []need {
	var out []need
	seen := map[string]bool{}
	for i := range g.Steps {
		st := &g.Steps[i]
		if seen[st.Sig] {
			continue
		}
		seen[st.Sig] = true
		out = append(out, need{sig: st.Sig, step: st})
	}
	return out
}

// search runs the best-first product enumeration over candidate
// interpretations for the given needs and commits the first combination
// that explains g and stays consistent with every decidable sample. With
// fresh=true the enumeration ignores already-committed semantics for the
// needs (recovery: a committed special case may need replacing by a more
// general interpretation) — committed trees still participate via overlay
// merging, where the fresh candidate wins per output key.
func (x *Extractor) search(g *dfg.Graph, needs []need, fresh bool) solveResult {
	ctx := x.enumCtx(g)
	lists := make([]*stream, len(needs))
	perNeed := 400
	if len(needs) == 1 {
		perNeed = 4000
	}
	for i, n := range needs {
		partial := x.Sems[n.sig]
		if fresh {
			partial = nil
		}
		lists[i] = ctx.candidates(n.step, partial, perNeed)
		if !lists[i].has(0) {
			return solveExhausted
		}
	}
	// Best-first product search over the candidate lists.
	h := &comboHeap{}
	heap.Init(h)
	start := make([]int, len(needs))
	heap.Push(h, combo{idx: start, score: totalScore(lists, start)})
	visited := map[uint64]bool{pack(start): true}
	memo := newMemo(g, x.Sems, x.Bits, needs, lists)
	defer memo.release()
	explained := false // some candidate explained g but broke another sample
	for tried := 0; h.Len() > 0 && tried < budget; tried++ {
		c := heap.Pop(h).(combo)
		x.Tr.Count(CtrCandidatesTried, 1)
		ok := memo.explains(c.idx)
		if x.checkMemo != nil {
			x.checkMemo(g, memo, x.overlay(needs, lists, c.idx), ok)
		}
		if ok {
			trial := x.overlay(needs, lists, c.idx)
			if x.consistent(trial, needs) {
				// Commit.
				for i, n := range needs {
					x.commit(n.sig, mergeSem(x.Sems[n.sig], lists[i].at(c.idx[i]).s))
				}
				x.Tr.Count(discovery.CtrSolvedBySearch, 1)
				return solveOK
			}
			explained = true
		}
		for d := range c.idx {
			c.idx[d]++
			if k := pack(c.idx); lists[d].has(c.idx[d]) && !visited[k] {
				visited[k] = true
				ni := append([]int(nil), c.idx...)
				heap.Push(h, combo{idx: ni, score: totalScore(lists, ni)})
			}
			c.idx[d]--
		}
	}
	if explained {
		return solveFail
	}
	return solveExhausted
}

// enumCtx is the likelihood context for searching g's semantics.
func (x *Extractor) enumCtx(g *dfg.Graph) *enumCtx {
	return &enumCtx{
		w:           x.W,
		mboosts:     x.MBoosts,
		samplePrims: x.samplePrims(g.Sample),
		bits:        x.Bits,
		ash:         x.SignedShifts,
	}
}

// samplePrims implements the P function for a sample. Loads and stores are
// likely in every sample (§5.2.2's example boosts load/store/mul/add/shl
// for a=b*c).
func (x *Extractor) samplePrims(s *discovery.Sample) map[string]bool {
	var out map[string]bool
	switch s.Kind {
	case discovery.PBinary:
		out = primsFor(s.COp)
	case discovery.PUnary:
		out = primsFor(s.COp + "u")
	case discovery.PCond:
		out = map[string]bool{sem.PCmp: true, sem.PMove: true}
	default:
		out = map[string]bool{sem.PMove: true}
	}
	out[sem.PLoad] = true
	if x.SignedShifts && (s.COp == "<<" || s.COp == ">>") {
		out[sem.PAsh] = true
	}
	return out
}

// trialSems is a trial semantics lookup: the combo's assignments shadow
// the committed base. Layering instead of copying matters because the
// best-first search interprets one trial per candidate combo, and the
// committed map grows with every solved signature.
type trialSems struct {
	base map[string]*sem.Sem
	over map[string]*sem.Sem
}

func (t trialSems) lookup(sig string) (*sem.Sem, bool) {
	if s, ok := t.over[sig]; ok {
		return s, true
	}
	s, ok := t.base[sig]
	return s, ok
}

// overlay builds a trial semantics: fixed semantics plus this combo.
func (x *Extractor) overlay(needs []need, lists []*stream, idx []int) trialSems {
	over := make(map[string]*sem.Sem, len(needs))
	for i, n := range needs {
		prev := over[n.sig]
		if prev == nil {
			prev = x.Sems[n.sig]
		}
		over[n.sig] = mergeSem(prev, lists[i].at(idx[i]).s)
	}
	return trialSems{base: x.Sems, over: over}
}

// mergeSem combines a partial existing semantics with newly found trees.
// Sems are immutable once built, so a one-sided merge aliases its input
// instead of copying — the search merges one per candidate combo.
func mergeSem(base, add *sem.Sem) *sem.Sem {
	if base == nil && add != nil {
		return add
	}
	if add == nil && base != nil {
		return base
	}
	out := &sem.Sem{Outs: map[string]*sem.Tree{}}
	if base != nil {
		for k, v := range base.Outs {
			out.Outs[k] = v
		}
		out.Cond = base.Cond
	}
	if add != nil {
		for k, v := range add.Outs {
			out.Outs[k] = v
		}
		if add.Cond != nil {
			out.Cond = add.Cond
		}
	}
	return out
}

// consistent re-verifies every sample that uses any of the newly assigned
// signatures AND is fully decidable under the trial semantics — solved or
// not ("choosing new interpretations ... until every sample produces the
// required result", §5.2; conflicts like mul(2,1) vs div(2,1) are §5.2.1).
func (x *Extractor) consistent(trial trialSems, needs []need) bool {
	usesNeed := func(g *dfg.Graph) bool {
		for i := range g.Steps {
			for _, n := range needs {
				if g.Steps[i].Sig == n.sig {
					return true
				}
			}
		}
		return false
	}
	decidable := func(g *dfg.Graph) bool {
		for i := range g.Steps {
			if s, _ := trial.lookup(g.Steps[i].Sig); !complete(&g.Steps[i], s) {
				return false
			}
		}
		return true
	}
	for _, g := range x.all {
		if !usesNeed(g) || !decidable(g) {
			continue
		}
		// Only a decidable-but-wrong *value* is counter-evidence. An
		// evaluation error means the trial cannot even be interpreted on
		// that graph — typically a structurally deficient degenerate
		// sample (mod.a_a's a%a=0 masks the hi-register channel because 0
		// is also the reset value) — and such samples are left to fail
		// alone, as the paper discards unexplainable samples (§5.2.2).
		if ok, err := run(g, trial, x.Bits); !ok && err == nil {
			return false
		}
	}
	return true
}

func totalScore(lists []*stream, idx []int) float64 {
	t := 0.0
	for i, j := range idx {
		t += lists[i].at(j).score
	}
	return t
}

// pack encodes a combo's index vector as its visited-set key: a search has
// at most three needs, and each index is below 4000 < 1<<16.
func pack(idx []int) uint64 {
	var k uint64
	for _, v := range idx {
		k = k<<16 | uint64(v)
	}
	return k
}

type combo struct {
	idx   []int
	score float64
}

type comboHeap []combo

func (h comboHeap) Len() int            { return len(h) }
func (h comboHeap) Less(i, j int) bool  { return h[i].score > h[j].score }
func (h comboHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *comboHeap) Push(x interface{}) { *h = append(*h, x.(combo)) }
func (h *comboHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}
