package extract

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"srcg/internal/dfg"
	"srcg/internal/sem"
)

// Candidate is one streamed candidate semantics as the tests compare it:
// its rendering and its summed score.
type Candidate struct {
	Sem   string
	Score float64
}

// StreamAndEager returns the candidates x's search streams for step st of
// g, with the trees of partial fixed, and the list the eager product
// builds for the same step: every output's scored list (each scored and
// sorted for its own key) and the condition list, combined row-major and
// cut at total*4, stable-sorted by summed score, then cut at total.
func StreamAndEager(x *Extractor, g *dfg.Graph, st *dfg.Step, partial *sem.Sem, total int) (got, want []Candidate) {
	c := x.enumCtx(g)
	return drain(c.candidates(st, partial, total)), eagerProduct(eagerLists(c, st, partial), total)
}

// SyntheticStreamAndEager is StreamAndEager over hand-made lists: axis d
// holds the literals 0, 1, ... with the scores scores[d] (each sorted in
// descending order), keyed "k<d>"; with cond the last axis is the branch
// condition instead.
func SyntheticStreamAndEager(scores [][]float64, cond bool, total int) (got, want []Candidate) {
	axes := make([]axis, len(scores))
	lists := make([][]scored, len(scores))
	for d, ss := range scores {
		axes[d] = axis{key: "k" + strconv.Itoa(d), cond: cond && d == len(scores)-1}
		for i, score := range ss {
			t := sem.Lit(int64(i))
			axes[d].trees = append(axes[d].trees, scoredTree{t: t, score: score})
			s := &sem.Sem{Outs: map[string]*sem.Tree{}}
			if axes[d].cond {
				s.Cond = t
			} else {
				s.Outs[axes[d].key] = t
			}
			lists[d] = append(lists[d], scored{s: s, score: score})
		}
	}
	return drain(newStream(axes, total)), eagerProduct(lists, total)
}

// drain reads a stream to its end.
func drain(s *stream) []Candidate {
	var out []Candidate
	for i := 0; s.has(i); i++ {
		out = append(out, Candidate{Sem: s.at(i).s.String(), Score: s.at(i).score})
	}
	return out
}

// eagerLists builds a step's per-output lists and its condition list the
// way the eager product did: each output key scores and sorts its own
// copy of the candidate trees.
func eagerLists(c *enumCtx, st *dfg.Step, partial *sem.Sem) [][]scored {
	mnemonic := strings.ToLower(st.Instr.Op)
	tr := traitsOf(st)
	sorted := func(trees []*sem.Tree, wrap func(*sem.Tree) *sem.Sem) []scored {
		var out []scored
		for _, t := range trees {
			out = append(out, scored{s: wrap(t), score: c.treeScore(st.Sig, mnemonic, tr, t)})
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].score > out[j].score })
		return out
	}
	var lists [][]scored
	seenKey := map[string]bool{}
	for _, p := range st.Outs {
		key := p.Key()
		if seenKey[key] {
			continue
		}
		seenKey[key] = true
		wrap := func(t *sem.Tree) *sem.Sem { return &sem.Sem{Outs: map[string]*sem.Tree{key: t}} }
		if partial != nil && partial.Outs[key] != nil {
			lists = append(lists, []scored{{s: wrap(partial.Outs[key])}})
			continue
		}
		lists = append(lists, sorted(c.outCandidates(st), wrap))
	}
	if st.Target != "" && len(st.Outs) == 0 {
		wrap := func(t *sem.Tree) *sem.Sem { return &sem.Sem{Cond: t} }
		if partial != nil && partial.Cond != nil {
			lists = append(lists, []scored{{s: wrap(partial.Cond)}})
		} else {
			lists = append(lists, sorted(c.condCandidates(st), wrap))
		}
	}
	return lists
}

// eagerProduct combines lists row-major, stopping each round at total*4
// combinations, then stable-sorts the result by summed score and keeps
// total of them (total 0: no cut).
func eagerProduct(lists [][]scored, total int) []Candidate {
	combos := []scored{{s: &sem.Sem{Outs: map[string]*sem.Tree{}}}}
	for _, next := range lists {
		var out []scored
	grow:
		for _, base := range combos {
			for _, n := range next {
				ns := &sem.Sem{Outs: map[string]*sem.Tree{}, Cond: base.s.Cond}
				for k, v := range base.s.Outs {
					ns.Outs[k] = v
				}
				for k, v := range n.s.Outs {
					ns.Outs[k] = v
				}
				if n.s.Cond != nil {
					ns.Cond = n.s.Cond
				}
				out = append(out, scored{s: ns, score: base.score + n.score})
				if total > 0 && len(out) >= total*4 {
					break grow
				}
			}
		}
		combos = out
	}
	sort.SliceStable(combos, func(i, j int) bool { return combos[i].score > combos[j].score })
	if total > 0 && len(combos) > total {
		combos = combos[:total]
	}
	out := make([]Candidate, len(combos))
	for i, c := range combos {
		out[i] = Candidate{Sem: c.s.String(), Score: c.score}
	}
	return out
}

// MemoCheck is what holding every combination's memo verdict to run
// found over one SolveAll.
type MemoCheck struct {
	// Combos counts the combinations the searches judged, and Explained
	// the ones the memo passed.
	Combos, Explained int
	// Mismatches lists the combinations on which the memo and run differ.
	Mismatches []string
	// Nodes holds each search's memo nodes, by sample, in search order.
	Nodes map[string][]int
}

// SolveAllCheckingMemo runs x.SolveAll, running every combination a search
// judges through run on its overlay as well and comparing the verdicts.
func SolveAllCheckingMemo(x *Extractor, graphs []*dfg.Graph) (Outcome, *MemoCheck) {
	c := &MemoCheck{Nodes: map[string][]int{}}
	var last *memo
	x.checkMemo = func(g *dfg.Graph, m *memo, trial trialSems, explains bool) {
		c.Combos++
		if explains {
			c.Explained++
		}
		if ok, err := run(g, trial, x.Bits); (ok && err == nil) != explains {
			c.Mismatches = append(c.Mismatches, fmt.Sprintf("%s under %s: memo %v, run %v, %v", g.Sample.Name, render(trial.over), explains, ok, err))
		}
		name := g.Sample.Name
		if m != last {
			c.Nodes[name] = append(c.Nodes[name], 0)
			last = m
		}
		c.Nodes[name][len(c.Nodes[name])-1] = m.nodes
	}
	defer func() { x.checkMemo = nil }()
	return x.SolveAll(graphs), c
}

// render lists sems' signatures in order, each with its semantics.
func render(sems map[string]*sem.Sem) string {
	sigs := make([]string, 0, len(sems))
	for sig := range sems {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	var sb strings.Builder
	for _, sig := range sigs {
		fmt.Fprintf(&sb, "[%s %s]", sig, sems[sig])
	}
	return sb.String()
}
