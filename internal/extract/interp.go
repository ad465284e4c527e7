// Package extract implements the Extractor (paper §5): graph matching
// (§5.1) assigns likely roles to instructions, and reverse interpretation
// (§5.2) searches for semantic interpretations — ordered by the likelihood
// L(S,I,R) = c1·M + c2·P + c3·G + c4·N — until every sample evaluates to
// its expected result.
package extract

import (
	"fmt"

	"srcg/internal/dfg"
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
	for _, v := range g.Sample.Vals {
		ok, err := runOne(g, sems, bits, v.A0, v.B, v.C, v.Expect)
		if !ok || err != nil {
			return ok, err
		}
	}
	return true, nil
}

func runOne(g *dfg.Graph, sems trialSems, bits int, a0, b, c, expect int64) (ok bool, err error) {
	st := sem.NewState(bits)
	st.Mem[g.SlotA] = truncTo(a0, bits)
	st.Mem[g.SlotB] = truncTo(b, bits)
	st.Mem[g.SlotC] = truncTo(c, bits)
	regs := map[string]sem.Value{}
	hidden := map[string]sem.Value{}

	pc := 0
	for steps := 0; pc < len(g.Steps); steps++ {
		if steps > 4*len(g.Steps)+16 {
			return false, fmt.Errorf("extract: interpretation did not terminate")
		}
		stp := &g.Steps[pc]
		s, okSem := sems.lookup(stp.Sig)
		if !okSem {
			return false, &ErrUnknown{Sig: stp.Sig}
		}
		in := map[string]sem.Value{}
		for _, p := range stp.Ins {
			switch p.Kind {
			case dfg.PReg:
				v, okv := regs[p.Reg]
				if !okv {
					return false, fmt.Errorf("extract: read of undefined register %s", p.Reg)
				}
				if v == undef {
					return false, fmt.Errorf("extract: read of unmodelled value in %s", p.Reg)
				}
				in[p.Key()] = v
			case dfg.PMem:
				in[p.Key()] = sem.Value{Addr: p.Addr}
			case dfg.PLit:
				in[p.Key()] = sem.Value{N: p.Lit}
			case dfg.PHidden:
				v, okv := hidden[p.Tag]
				if !okv {
					return false, fmt.Errorf("extract: read of undefined hidden channel %s", p.Tag)
				}
				in[p.Key()] = v
			}
		}
		// Outputs.
		for _, p := range stp.Outs {
			t := s.Outs[p.Key()]
			var v sem.Value
			if t == nil {
				v = undef
			} else {
				var errv error
				v, errv = t.Eval(in, st)
				if errv != nil {
					return false, errv
				}
			}
			switch p.Kind {
			case dfg.PReg:
				regs[p.Reg] = v
			case dfg.PHidden:
				hidden[p.Tag] = v
			case dfg.PMem:
				if v == undef {
					return false, fmt.Errorf("extract: unmodelled store")
				}
				if v.IsAddr() {
					return false, fmt.Errorf("extract: storing address %s", v)
				}
				st.Mem[p.Addr] = v.N
			}
		}
		// Control.
		next := pc + 1
		if s.Cond != nil {
			cv, errc := s.Cond.Eval(in, st)
			if errc != nil {
				return false, errc
			}
			if cv.IsAddr() {
				return false, fmt.Errorf("extract: address as branch condition")
			}
			if cv.N != 0 {
				if idx, okl := g.Labels[stp.Target]; okl {
					next = idx
				} else {
					next = len(g.Steps) // exit the region
				}
			}
		}
		pc = next
	}
	return st.Mem[g.SlotA] == truncTo(expect, bits), nil
}

func truncTo(v int64, bits int) int64 {
	if bits >= 64 {
		return v
	}
	shift := 64 - uint(bits)
	return (v << shift) >> shift
}
