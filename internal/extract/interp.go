// Package extract implements the Extractor (paper §5): graph matching
// (§5.1) assigns likely roles to instructions, and reverse interpretation
// (§5.2) searches for semantic interpretations — ordered by the likelihood
// L(S,I,R) = c1·M + c2·P + c3·G + c4·N — until every sample evaluates to
// its expected result.
package extract

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sync"

	"srcg/internal/dfg"
	"srcg/internal/discovery"
	"srcg/internal/sem"
)

// ErrUnknown reports an instruction signature without a semantic
// interpretation during evaluation.
type ErrUnknown struct{ Sig string }

func (e *ErrUnknown) Error() string { return "extract: no semantics for " + e.Sig }

// undef marks a value written by an output port whose tree is unknown.
var undef = sem.Value{Addr: "\x00undef"}

// Run interprets a sample's graph under the given semantics for EVERY
// valuation of the hidden values, reporting whether the sample's variable
// `a` always ends with its expected value. Checking all valuations starves
// value-symmetric misinterpretations (a "negated-load / negated-store"
// pair explains one valuation of a=b, but not three).
func Run(g *dfg.Graph, sems map[string]*sem.Sem, bits int) (bool, error) {
	return run(g, trialSems{base: sems}, bits)
}

// run is Run over a layered trial: the search interprets thousands of
// candidate combos per sample, and the overlay spares it a full map copy
// for each one.
func run(g *dfg.Graph, sems trialSems, bits int) (bool, error) {
	m := idle.Get().(*machine)
	defer idle.Put(m)
	m.g, m.st.Bits = g, bits
	for _, v := range g.Sample.Vals {
		m.start(v)
		if err := m.advance(sems, nil); err != nil {
			return false, err
		}
		if !m.right(v) {
			return false, nil
		}
	}
	return true, nil
}

// machine is the interpreter on one valuation of a graph, paused before
// step pc: the memory, registers and hidden channels the steps before it
// wrote, and how many steps ran.
type machine struct {
	g      *dfg.Graph
	st     *sem.State
	regs   bindings
	hidden bindings
	in     map[string]sem.Value // step pc's inputs, once read
	pc     int
	steps  int
}

// idle holds spare machines: the search's consistency checks run
// thousands of graphs, and its memo snapshots the interpreter at every
// node, while a machine's maps escape to the heap.
var idle = sync.Pool{New: func() any {
	return &machine{st: &sem.State{Mem: map[string]int64{}}, in: map[string]sem.Value{}}
}}

// binding is a register or hidden channel and the value it holds.
type binding struct {
	name string
	v    sem.Value
}

// bindings are a machine's registers or hidden channels: a handful, which
// a scan finds sooner than a map hashes.
type bindings []binding

func (bs bindings) get(name string) (sem.Value, bool) {
	for _, b := range bs {
		if b.name == name {
			return b.v, true
		}
	}
	return sem.Value{}, false
}

func (bs *bindings) set(name string, v sem.Value) {
	for i := range *bs {
		if (*bs)[i].name == name {
			(*bs)[i].v = v
			return
		}
	}
	*bs = append(*bs, binding{name, v})
}

// start resets m to valuation v, before g's first step.
func (m *machine) start(v discovery.Valuation) {
	clear(m.st.Mem)
	m.regs, m.hidden = m.regs[:0], m.hidden[:0]
	m.pc, m.steps = 0, 0
	bits := m.st.Bits
	m.st.Mem[m.g.SlotA] = truncTo(v.A0, bits)
	m.st.Mem[m.g.SlotB] = truncTo(v.B, bits)
	m.st.Mem[m.g.SlotC] = truncTo(v.C, bits)
}

// copyTo makes dst a copy of m's state, reusing dst's maps.
func (m *machine) copyTo(dst *machine) {
	dst.g, dst.pc, dst.steps, dst.st.Bits = m.g, m.pc, m.steps, m.st.Bits
	clear(dst.st.Mem)
	maps.Copy(dst.st.Mem, m.st.Mem)
	dst.regs = append(dst.regs[:0], m.regs...)
	dst.hidden = append(dst.hidden[:0], m.hidden...)
}

// done reports whether the machine has left the region.
func (m *machine) done() bool { return m.pc >= len(m.g.Steps) }

// right reports whether a finished machine's a holds v's expected value.
func (m *machine) right(v discovery.Valuation) bool {
	return m.st.Mem[m.g.SlotA] == truncTo(v.Expect, m.st.Bits)
}

// advance runs steps under sems until the machine leaves the region or
// stops before a step whose signature pause holds (nil: none).
func (m *machine) advance(sems trialSems, pause map[string]int) error {
	for !m.done() {
		if m.steps > 4*len(m.g.Steps)+16 {
			return fmt.Errorf("extract: interpretation did not terminate")
		}
		stp := &m.g.Steps[m.pc]
		if _, ok := pause[stp.Sig]; ok {
			return nil
		}
		s, ok := sems.lookup(stp.Sig)
		if !ok {
			return &ErrUnknown{Sig: stp.Sig}
		}
		if err := m.inputs(); err != nil {
			return err
		}
		if err := m.exec(s, m.in); err != nil {
			return err
		}
	}
	return nil
}

// inputs reads the values of step pc's input ports into m.in.
func (m *machine) inputs() error {
	stp := &m.g.Steps[m.pc]
	clear(m.in)
	for _, p := range stp.Ins {
		switch p.Kind {
		case dfg.PReg:
			v, okv := m.regs.get(p.Reg)
			if !okv {
				return fmt.Errorf("extract: read of undefined register %s", p.Reg)
			}
			if v == undef {
				return fmt.Errorf("extract: read of unmodelled value in %s", p.Reg)
			}
			m.in[p.Key()] = v
		case dfg.PMem:
			m.in[p.Key()] = sem.Value{Addr: p.Addr}
		case dfg.PLit:
			m.in[p.Key()] = sem.Value{N: p.Lit}
		case dfg.PHidden:
			v, okv := m.hidden.get(p.Tag)
			if !okv {
				return fmt.Errorf("extract: read of undefined hidden channel %s", p.Tag)
			}
			m.in[p.Key()] = v
		}
	}
	return nil
}

// exec runs step pc under s, given its inputs: each output in turn, so a
// store lands before the next output's tree reads memory, then the branch.
func (m *machine) exec(s *sem.Sem, in map[string]sem.Value) error {
	stp := &m.g.Steps[m.pc]
	for _, p := range stp.Outs {
		t := s.Outs[p.Key()]
		v := undef
		if t != nil {
			var err error
			if v, err = t.Eval(in, m.st); err != nil {
				return err
			}
		}
		switch p.Kind {
		case dfg.PReg:
			m.regs.set(p.Reg, v)
		case dfg.PHidden:
			m.hidden.set(p.Tag, v)
		case dfg.PMem:
			if v == undef {
				return fmt.Errorf("extract: unmodelled store")
			}
			if v.IsAddr() {
				return fmt.Errorf("extract: storing address %s", v)
			}
			m.st.Mem[p.Addr] = v.N
		}
	}
	next := m.pc + 1
	if s.Cond != nil {
		cv, err := s.Cond.Eval(in, m.st)
		if err != nil {
			return err
		}
		if cv.IsAddr() {
			return fmt.Errorf("extract: address as branch condition")
		}
		if cv.N != 0 {
			if idx, ok := m.g.Labels[stp.Target]; ok {
				next = idx
			} else {
				next = len(m.g.Steps) // exit the region
			}
		}
	}
	m.pc = next
	m.steps++
	return nil
}

// memo judges one search's combinations by their need-output trajectories.
// Within a search every step whose signature is not a need has fixed
// semantics, so whether a combination explains g depends only on what its
// need steps' trees produce, in execution order. The memo keeps those
// trajectories as a trie: a node is the interpreter paused before a need
// step on some valuation, and its children are the distinct effects that
// step's candidates have there. A combination walks the trie, and only a
// new child is interpreted, from its parent's snapshot up to the next need
// step or the verdict.
type memo struct {
	g     *dfg.Graph
	bits  int
	base  trialSems      // the committed semantics, which the fixed steps use
	pause map[string]int // each need's index, by signature
	needs []need
	lists []*stream
	root  *node
	// byEffect holds each node's children by the effect that selects them.
	byEffect map[effect]*node
	scratch  *machine // judges a candidate without touching the node
	key      []byte
	nodes    int
	machines []*machine // every machine the memo took from idle
}

// node is the interpreter paused before a need step on valuation val,
// with the step's inputs read: no candidate changes them. next holds the
// child each of the need's candidates leads to (nil: not judged yet).
type node struct {
	m    *machine
	val  int
	need int
	next []*node
}

// effect is what a need step did at a node: the values its output ports
// hold after it, and the step it went on to.
type effect struct {
	at  *node
	key string
}

// The trie's leaves: every valuation ends with its expected a, or some
// valuation fails to evaluate or ends with another.
var explainedLeaf, refutedLeaf = &node{}, &node{}

func newMemo(g *dfg.Graph, base map[string]*sem.Sem, bits int, needs []need, lists []*stream) *memo {
	mm := &memo{g: g, bits: bits, base: trialSems{base: base}, pause: map[string]int{},
		needs: needs, lists: lists, byEffect: map[effect]*node{}}
	for d, n := range needs {
		mm.pause[n.sig] = d
	}
	mm.root = explainedLeaf
	if vals := g.Sample.Vals; len(vals) > 0 {
		m := mm.machine()
		m.start(vals[0])
		mm.root = mm.settle(0, m)
	}
	return mm
}

// explains reports whether run(g) passes under the combination whose
// candidate for need d is idx[d].
func (mm *memo) explains(idx []int) bool {
	n := mm.root
	for n != explainedLeaf && n != refutedLeaf {
		i := idx[n.need]
		if i >= len(n.next) {
			n.next = append(n.next, make([]*node, i+1-len(n.next))...)
		}
		if n.next[i] == nil {
			n.next[i] = mm.child(n, i)
		}
		n = n.next[i]
	}
	return n == explainedLeaf
}

// child runs n's need step under its i-th candidate and returns the child
// of n that the step's effect selects, interpreting it if it is new.
func (mm *memo) child(n *node, i int) *node {
	if mm.scratch == nil {
		mm.scratch = mm.machine()
	}
	m := mm.scratch
	n.m.copyTo(m)
	stp := &m.g.Steps[m.pc]
	s := mergeSem(mm.base.base[mm.needs[n.need].sig], mm.lists[n.need].at(i).s)
	if err := m.exec(s, n.m.in); err != nil {
		return refutedLeaf
	}
	// The step changed the snapshot only at its output ports and pc.
	k := mm.key[:0]
	for _, p := range stp.Outs {
		var v sem.Value
		switch p.Kind {
		case dfg.PReg:
			v, _ = m.regs.get(p.Reg)
		case dfg.PHidden:
			v, _ = m.hidden.get(p.Tag)
		case dfg.PMem:
			v.N = m.st.Mem[p.Addr]
		}
		k = binary.AppendVarint(k, v.N)
		k = binary.AppendUvarint(k, uint64(len(v.Addr)))
		k = append(k, v.Addr...)
	}
	k = binary.AppendUvarint(k, uint64(m.pc))
	mm.key = k
	if c, ok := mm.byEffect[effect{n, string(k)}]; ok {
		return c
	}
	c := mm.settle(n.val, m)
	if c != explainedLeaf && c != refutedLeaf {
		mm.scratch = nil // m is c's snapshot now
	}
	mm.byEffect[effect{n, string(k)}] = c
	return c
}

// machine takes a machine for g from idle.
func (mm *memo) machine() *machine {
	m := idle.Get().(*machine)
	m.g, m.st.Bits = mm.g, mm.bits
	mm.machines = append(mm.machines, m)
	return m
}

// release returns the memo's machines to idle; the memo is done.
func (mm *memo) release() {
	for _, m := range mm.machines {
		idle.Put(m)
	}
}

// settle runs m on valuation val to the next need step, where it makes a
// node, or to the verdict; a valuation that ends right starts the next one
// on m.
func (mm *memo) settle(val int, m *machine) *node {
	vals := mm.g.Sample.Vals
	for {
		if err := m.advance(mm.base, mm.pause); err != nil {
			return refutedLeaf
		}
		if !m.done() {
			if err := m.inputs(); err != nil {
				return refutedLeaf
			}
			mm.nodes++
			return &node{m: m, val: val, need: mm.pause[m.g.Steps[m.pc].Sig]}
		}
		if !m.right(vals[val]) {
			return refutedLeaf
		}
		if val++; val == len(vals) {
			return explainedLeaf
		}
		m.start(vals[val])
	}
}

func truncTo(v int64, bits int) int64 {
	if bits >= 64 {
		return v
	}
	shift := 64 - uint(bits)
	return (v << shift) >> shift
}
