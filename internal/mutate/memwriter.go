package mutate

import (
	"fmt"
	"strings"

	"srcg/internal/discovery"
)

// FindMemWriter locates the instruction that writes the sample's output
// cell: a constant-store sequence (the const sample's region with a fresh
// distinctive constant) is inserted at each boundary; the smallest
// position where the program then prints the constant lies just past the
// last writer. Two constants are planted so the verdict cannot hold by
// accident. Each (position, constant) probe is assembled once and run
// under every valuation that has not yet printed its constant. storeSeq
// is the const sample's region; lit is its planted literal.
//
// The probe's staging registers are renamed to registers the region never
// mentions, for two reasons: a shared staging register would let a trailing
// original store re-store the probe constant (the Alpha's stq $1 after the
// probe also used $1 — the writer would appear one position early), and a
// leftover probe value in a region register would perturb later consumers
// (a MIPS bge reading the probe's $9 flips the branch and fakes a hit).
// Renamings that break the probe itself (hardwired or class-restricted
// registers) are rejected by requiring the probe to work at region end,
// where it must always print the constant.
func (e *Engine) FindMemWriter(a *Analysis, storeSeq []discovery.Instr, lit int64) {
	defer e.enter(anMemWriter)()
	a.AWriter = -1
	staging := discovery.Registers(storeSeq)
	fresh := e.freshRegisters(a.Region, len(staging)+4)
	render := func(k int64, offset int) []discovery.Instr {
		out := discovery.CloneInstrs(storeSeq)
		rename := map[string]string{}
		for i, r := range staging {
			rename[r] = fresh[i+offset]
		}
		for i := range out {
			out[i].Labels = nil
			for j := range out[i].Args {
				arg := &out[i].Args[j]
				if arg.Kind == discovery.KLit && arg.Lit == lit {
					arg.Text = strings.Replace(arg.Text, fmt.Sprintf("%d", lit), fmt.Sprintf("%d", k), 1)
				}
				if to, ok := rename[arg.Text]; ok && arg.Kind == discovery.KReg {
					arg.Text = to
					arg.Regs = []string{to}
				}
			}
		}
		return out
	}
	// The probe plants its constant itself, so what it prints on a hit is
	// an exact reference: a first run printing it settles the probe.
	ks := [2]int64{24683, -19751}
	var wants [2]string
	for j, k := range ks {
		wants[j] = fmt.Sprintf("%d\n", int32(k))
	}
	// hit reports whether both constants' probes at pos print under val.
	// probes holds the position's probes, each assembled on first use (a
	// zero mutant is unbuilt) and reused under every later valuation.
	hit := func(probes *[2]mutant, pos, val, offset int) bool {
		for j, k := range ks {
			if probes[j].s == nil {
				region := discovery.CloneInstrs(a.Region)
				for i, ins := range render(k, offset) {
					region = Insert(region, pos+i, ins)
				}
				probes[j] = e.build(a.Sample, region)
			}
			if !e.prints(probes[j], val, wants[j]) {
				return false
			}
		}
		return true
	}
	// Pick a register renaming the probe survives: at region end the probe
	// runs unconditionally after every writer, so it must print k there.
	offset := -1
	var end [2]mutant
	for o := 0; o+len(staging) <= len(fresh); o++ {
		end = [2]mutant{}
		if hit(&end, len(a.Region), 0, o) {
			offset = o
			break
		}
	}
	if offset < 0 {
		return
	}
	// The store may sit on a conditionally executed path (a guarded
	// assignment's taken direction skips it), so each valuation is probed
	// and the latest writer wins: a valuation is resolved at the smallest
	// position where the probe prints its constant.
	unresolved := make([]int, a.Sample.NumValuations())
	for val := range unresolved {
		unresolved[val] = val
	}
	for pos := 0; pos <= len(a.Region) && len(unresolved) > 0; pos++ {
		// Never split a delay-slotted pair.
		if pos > 0 && a.Slotted[pos-1] {
			continue
		}
		var probes [2]mutant
		if pos == len(a.Region) {
			probes = end // assembled while picking the renaming
		}
		still := unresolved[:0]
		for _, val := range unresolved {
			if !hit(&probes, pos, val, offset) {
				still = append(still, val)
				continue
			}
			// The last writer is the nearest non-filler instruction before
			// pos; pos == 0 means this valuation's path writes nothing.
			for i := pos - 1; i >= 0; i-- {
				if !a.Filler[i] {
					if i > a.AWriter {
						a.AWriter = i
					}
					break
				}
			}
		}
		unresolved = still
	}
}
