package extract

import (
	"container/heap"
	"sort"
	"strings"

	"srcg/internal/dfg"
	"srcg/internal/sem"
)

// Weights are the coefficients of the likelihood function
// L(S,I,R) = c1·M + c2·P + c3·G + c4·N of §5.2.2. DefaultWeights reflects
// the paper's ordering: graph-match evidence weighs most, the mnemonic
// heuristic least.
type Weights struct {
	M, P, G, N float64
	// Size penalizes longer interpretations (the search favors the
	// shortest workable semantics, §5.2.1).
	Size float64
}

// DefaultWeights is the standard configuration.
var DefaultWeights = Weights{M: 8, P: 3, G: 2, N: 1, Size: 0.5}

// BlindWeights disables every heuristic (the E16 ablation baseline).
var BlindWeights = Weights{Size: 0.5}

// mnemonicHints maps substrings of instruction mnemonics to primitives
// (the N function; "highly inaccurate, so given a low weighting").
var mnemonicHints = []struct {
	sub  string
	prim string
}{
	{"add", sem.PAdd}, {"plus", sem.PAdd},
	{"sub", sem.PSub}, {"min", sem.PSub},
	{"mul", sem.PMul}, {"mlt", sem.PMul},
	{"div", sem.PDiv},
	{"rem", sem.PMod}, {"mod", sem.PMod},
	{"and", sem.PAnd}, {"bic", sem.PAnd},
	{"or", sem.POr}, {"bis", sem.POr},
	{"xor", sem.PXor}, {"eor", sem.PXor},
	{"sll", sem.PShl}, {"sal", sem.PShl}, {"shl", sem.PShl}, {"ashl", sem.PShl}, {"lsh", sem.PShl},
	{"sra", sem.PShr}, {"sar", sem.PShr}, {"shr", sem.PShr},
	{"ash", sem.PAsh},
	{"neg", sem.PNeg},
	{"not", sem.PNot}, {"com", sem.PNot},
	{"mov", sem.PMove}, {"mv", sem.PMove},
	{"ld", sem.PMove}, {"lw", sem.PMove}, {"li", sem.PMove},
	{"st", sem.PMove}, {"sw", sem.PMove},
	{"cmp", sem.PCmp}, {"tst", sem.PCmp},
}

// scored is a candidate semantics with its likelihood.
type scored struct {
	s     *sem.Sem
	score float64
}

// enumCtx carries the likelihood context for one search.
type enumCtx struct {
	w       Weights
	mboosts map[string]map[string]float64
	// samplePrims are the primitives the current sample's payload makes
	// likely (the P function: a=b*c boosts load/store/mul/add/shl).
	samplePrims map[string]bool
	bits        int
	// ash enables the signed-count shift primitive (the SignedShifts
	// extension beyond the paper; resolves the VAX ashl limitation).
	ash bool
}

// binPrims is the binary-primitive vocabulary for this search.
func (c *enumCtx) binPrims() []string {
	if c.ash {
		return append(append([]string(nil), binaryPrims...), sem.PAsh)
	}
	return binaryPrims
}

// primsFor returns the P-function primitive set for a sample operator.
func primsFor(op string) map[string]bool {
	out := map[string]bool{sem.PMove: true}
	if p, ok := opPrim[op]; ok {
		out[p] = true
		// The paper's example: multiplication by constants often expands
		// to shifts and adds.
		if p == sem.PMul {
			out[sem.PAdd] = true
			out[sem.PShl] = true
		}
	}
	switch op {
	case "-u":
		out[sem.PNeg] = true
	case "~u":
		out[sem.PNot] = true
	}
	return out
}

// sigTraits carries the G-function evidence from an instruction's shape
// (§5.2.2: "if I takes an address argument it is quite likely to perform a
// load or a store, and if it takes a label argument it probably does a
// branch ... an instruction that returns no result is likely to perform
// (some sort of) store operation").
type sigTraits struct {
	hasMemIn  bool
	hasMemOut bool
	isBranch  bool
	noOuts    bool
}

func traitsOf(st *dfg.Step) sigTraits {
	tr := sigTraits{isBranch: st.Target != "" && len(st.Outs) == 0, noOuts: len(st.Outs) == 0}
	for _, p := range st.Ins {
		if p.Kind == dfg.PMem {
			tr.hasMemIn = true
		}
	}
	for _, p := range st.Outs {
		if p.Kind == dfg.PMem {
			tr.hasMemOut = true
		}
	}
	return tr
}

// treeScore computes the heuristic components for one tree. A bare leaf
// (arg or load(arg)) is a move/load semantics and collects the move boost.
func (c *enumCtx) treeScore(sig, mnemonic string, tr sigTraits, t *sem.Tree) float64 {
	score := -c.w.Size * float64(t.Size())
	if t.Prim == sem.PArg || (t.Prim == sem.PLoad && t.Kids[0].Prim == sem.PArg) {
		if b, ok := c.mboosts[sig][sem.PMove]; ok {
			score += c.w.M * b
		}
		if c.samplePrims[sem.PMove] {
			score += c.w.P
		}
		// G: an instruction with a memory output is likely a store — the
		// plain value-passing semantics.
		if tr.hasMemOut && t.Prim == sem.PArg {
			score += c.w.G
		}
		for _, h := range mnemonicHints {
			if h.prim == sem.PMove && strings.Contains(mnemonic, h.sub) {
				score += c.w.N
				break
			}
		}
	}
	seen := map[string]bool{}
	var walk func(*sem.Tree)
	walk = func(n *sem.Tree) {
		if !seen[n.Prim] {
			seen[n.Prim] = true
			if b, ok := c.mboosts[sig][n.Prim]; ok {
				score += c.w.M * b
			}
			if c.samplePrims[n.Prim] {
				score += c.w.P
			}
			// G: shape evidence.
			if tr.hasMemIn && n.Prim == sem.PLoad {
				score += c.w.G
			}
			if tr.isBranch && isRelPrim(n.Prim) {
				score += c.w.G
			}
			if tr.noOuts && !tr.isBranch && n.Prim == sem.PCmp {
				score += c.w.G
			}
			for _, h := range mnemonicHints {
				if h.prim == n.Prim && strings.Contains(mnemonic, h.sub) {
					score += c.w.N
					break
				}
			}
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(t)
	return score
}

func isRelPrim(p string) bool {
	for _, r := range relPrims {
		if p == r {
			return true
		}
	}
	return false
}

// leaves builds the wrapped input leaves for a step: memory ports load,
// literal and register ports pass through, plus small-constant leaves.
func leaves(st *dfg.Step, bits int) []*sem.Tree {
	var out []*sem.Tree
	for _, p := range st.Ins {
		a := sem.Arg(p.Key())
		if p.Kind == dfg.PMem {
			out = append(out, sem.Load(a))
		} else {
			out = append(out, a)
		}
	}
	out = append(out, sem.Lit(0), sem.Lit(1), sem.Lit(int64(bits-1)))
	return out
}

var binaryPrims = []string{
	sem.PAdd, sem.PSub, sem.PMul, sem.PDiv, sem.PMod,
	sem.PAnd, sem.POr, sem.PXor, sem.PShl, sem.PShr,
}

var relPrims = []string{sem.PIsEQ, sem.PIsNE, sem.PIsLT, sem.PIsLE, sem.PIsGT, sem.PIsGE}

// outCandidates enumerates value trees for one output port.
func (c *enumCtx) outCandidates(st *dfg.Step) []*sem.Tree {
	ls := leaves(st, c.bits)
	nIn := len(st.Ins) // leaves beyond nIn are synthetic constants
	var out []*sem.Tree
	// Moves/loads (a bare leaf): input leaves only — constants as full
	// semantics are covered by literal ports.
	for i := 0; i < nIn; i++ {
		out = append(out, ls[i])
	}
	// Unary.
	for i := 0; i < nIn; i++ {
		out = append(out, sem.Un(sem.PNeg, ls[i]), sem.Un(sem.PNot, ls[i]))
	}
	// Value comparisons (the Alpha's cmplt family).
	for i := 0; i < nIn; i++ {
		for j := 0; j < nIn; j++ {
			if i == j {
				continue
			}
			for _, r := range relPrims {
				out = append(out, sem.Un(r, sem.Bin(sem.PCmp, ls[i], ls[j])))
			}
		}
	}
	// Binary over all ordered leaf pairs (synthetic constants allowed as
	// second operands: shiftRight(x, 31) is the sign-extension idiom).
	for _, p := range c.binPrims() {
		for i := 0; i < nIn; i++ {
			for j := range ls {
				if i == j {
					continue
				}
				out = append(out, sem.Bin(p, ls[i], ls[j]))
			}
			// Constant-first forms (7-b).
			for j := nIn; j < len(ls); j++ {
				out = append(out, sem.Bin(p, ls[j], ls[i]))
			}
		}
	}
	// Raw comparisons (condition-code producers: cmp, tstl).
	for i := 0; i < nIn; i++ {
		for j := 0; j < len(ls); j++ {
			if i == j {
				continue
			}
			out = append(out, sem.Bin(sem.PCmp, ls[i], ls[j]))
		}
	}
	// Bit-clear/or-not idioms (VAX bicl3, Alpha ornot).
	for _, p := range []string{sem.PAnd, sem.POr} {
		for i := 0; i < nIn; i++ {
			for j := 0; j < nIn; j++ {
				if i == j {
					continue
				}
				out = append(out, sem.Bin(p, ls[i], sem.Un(sem.PNot, ls[j])))
			}
		}
	}
	return out
}

// condCandidates enumerates branch conditions for a step with a target.
func (c *enumCtx) condCandidates(st *dfg.Step) []*sem.Tree {
	ls := leaves(st, c.bits)
	nIn := len(st.Ins)
	var out []*sem.Tree
	// Condition-code-driven branches: isREL of a hidden input.
	for i, p := range st.Ins {
		if p.Kind == dfg.PHidden {
			for _, r := range relPrims {
				out = append(out, sem.Un(r, sem.Arg(st.Ins[i].Key())))
			}
		}
	}
	// Direct compare-and-branch (MIPS beq/bne/blt...).
	for i := 0; i < nIn; i++ {
		for j := 0; j < len(ls); j++ {
			if i == j || (j < nIn && st.Ins[j].Kind == dfg.PHidden) || st.Ins[i].Kind == dfg.PHidden {
				continue
			}
			for _, r := range relPrims {
				out = append(out, sem.Un(r, sem.Bin(sem.PCmp, ls[i], ls[j])))
			}
		}
	}
	// Unconditional.
	out = append(out, sem.Lit(1))
	return out
}

// scoredTree is one tree of a candidate axis with its likelihood.
type scoredTree struct {
	t     *sem.Tree
	score float64
}

// axis is one dimension of a step's candidate product: the trees for one
// output key, or for the branch condition, sorted by descending score.
type axis struct {
	key   string
	cond  bool
	trees []scoredTree
}

// scoreSorted scores trees and stable-sorts them by descending score.
func (c *enumCtx) scoreSorted(st *dfg.Step, trees []*sem.Tree) []scoredTree {
	mnemonic := strings.ToLower(st.Instr.Op)
	tr := traitsOf(st)
	out := make([]scoredTree, len(trees))
	for i, t := range trees {
		out[i] = scoredTree{t: t, score: c.treeScore(st.Sig, mnemonic, tr, t)}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].score > out[j].score })
	return out
}

// candidates streams complete Sem candidates for a step, in descending
// likelihood. Known (already fixed) trees for some output keys may be
// supplied in partial; only the missing parts are enumerated. The stream
// yields the combinations of the axes' trees whose row-major rank is below
// total*4, best first, at most total of them (total 0: every combination).
func (c *enumCtx) candidates(st *dfg.Step, partial *sem.Sem, total int) *stream {
	var axes []axis
	var outTrees []scoredTree // scored once: treeScore ignores the key
	seenKey := map[string]bool{}
	for _, p := range st.Outs {
		key := p.Key()
		if seenKey[key] {
			continue
		}
		seenKey[key] = true
		if partial != nil && partial.Outs[key] != nil {
			axes = append(axes, axis{key: key, trees: []scoredTree{{t: partial.Outs[key]}}})
			continue
		}
		if outTrees == nil {
			outTrees = c.scoreSorted(st, c.outCandidates(st))
		}
		axes = append(axes, axis{key: key, trees: outTrees})
	}
	// Branch condition axis (only for branch-like steps: a target and no
	// value outputs).
	if st.Target != "" && len(st.Outs) == 0 {
		if partial != nil && partial.Cond != nil {
			axes = append(axes, axis{cond: true, trees: []scoredTree{{t: partial.Cond}}})
		} else {
			axes = append(axes, axis{cond: true, trees: c.scoreSorted(st, c.condCandidates(st))})
		}
	}
	return newStream(axes, total)
}

// stream yields the combinations of its axes' trees lazily, in descending
// summed score, ties in ascending row-major rank, at most total of them.
// Only combinations of rank below total*4 take part (total 0: all). That region is closed under decrementing
// any index, and decrementing one never lowers the score (each axis is
// sorted, and floating-point addition is monotone), so every combination's
// predecessors come first: a best-first walk over a frontier heap, seeded
// with the all-zero combination, yields exactly the stable sort of the
// region by score. Each combination is pushed once, by the parent that
// decrements its last nonzero index.
type stream struct {
	axes   []axis
	stride []int // row-major weight of each axis
	total  int
	front  frontier
	out    []scored
}

func newStream(axes []axis, total int) *stream {
	s := &stream{axes: axes, stride: make([]int, len(axes)), total: total}
	w := 1
	for d := len(axes) - 1; d >= 0; d-- {
		if len(axes[d].trees) == 0 {
			return s // an empty axis: no combinations
		}
		s.stride[d] = w
		w *= len(axes[d].trees)
	}
	s.front = frontier{s.tuple(make([]int, len(axes)), 0)}
	return s
}

// tuple builds a frontier entry, summing its score left to right.
func (s *stream) tuple(idx []int, rank int) tuple {
	score := 0.0
	for d, i := range idx {
		score += s.axes[d].trees[i].score
	}
	return tuple{idx: idx, rank: rank, score: score}
}

// has reports whether the stream has an i-th candidate, producing up to it.
func (s *stream) has(i int) bool {
	for len(s.out) <= i && s.next() {
	}
	return i < len(s.out)
}

// at returns the i-th candidate; has(i) must have reported true.
func (s *stream) at(i int) scored { return s.out[i] }

// next produces one more candidate, if any.
func (s *stream) next() bool {
	if len(s.front) == 0 || (s.total > 0 && len(s.out) >= s.total) {
		return false
	}
	t := heap.Pop(&s.front).(tuple)
	ns := &sem.Sem{Outs: make(map[string]*sem.Tree, len(s.axes))}
	last := 0
	for d, i := range t.idx {
		if a := s.axes[d]; a.cond {
			ns.Cond = a.trees[i].t
		} else {
			ns.Outs[a.key] = a.trees[i].t
		}
		if i > 0 {
			last = d
		}
	}
	s.out = append(s.out, scored{s: ns, score: t.score})
	for d := last; d < len(t.idx); d++ {
		rank := t.rank + s.stride[d]
		if t.idx[d]+1 >= len(s.axes[d].trees) || (s.total > 0 && rank >= 4*s.total) {
			continue
		}
		idx := append([]int(nil), t.idx...)
		idx[d]++
		heap.Push(&s.front, s.tuple(idx, rank))
	}
	return true
}

// tuple is one combination of axis indexes on the stream's frontier.
type tuple struct {
	idx   []int
	rank  int
	score float64
}

type frontier []tuple

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	if f[i].score != f[j].score {
		return f[i].score > f[j].score
	}
	return f[i].rank < f[j].rank
}
func (f frontier) Swap(i, j int)       { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x interface{}) { *f = append(*f, x.(tuple)) }
func (f *frontier) Pop() interface{} {
	old := *f
	n := len(old)
	t := old[n-1]
	*f = old[:n-1]
	return t
}
