package mutate

import (
	"sort"
	"testing"

	"srcg/internal/discovery"
	"srcg/internal/target/x86"
)

// TestBatchedVerdictMatchesValuations: one run of the image that hands
// out every valuation must reach the verdict the valuations reach one
// image each. Over every single-instruction deletion of every x86 sample,
// SameOutput must equal the AND of SameOutputVal over the valuations, and
// among them a conditional sample's deletion must pass its base valuation
// and break a later one, so the batch is seen to run past the first.
//
// The one exception is stricter, never laxer: without int.call.b_c's
// push of c, P2 reads its second argument from c's own stack slot, so
// each valuation alone prints the right value; but the call's cleanup
// then leaves the stack pointer one word high, and in the next pass the
// push of b overwrites c before the call.
func TestBatchedVerdictMatchesValuations(t *testing.T) {
	e, samples := setup(t, x86.New())
	names := make([]string, 0, len(samples))
	for n := range samples {
		names = append(names, n)
	}
	sort.Strings(names)
	type deletion struct {
		sample string
		i      int
	}
	stricter := map[deletion]bool{{"int.call.b_c", 1}: true}
	lateBreak := ""
	for _, n := range names {
		s := samples[n]
		for i := range s.Region {
			mut := Delete(s.Region, i)
			each, baseOK := true, false
			for val := 0; val < s.NumValuations(); val++ {
				ok := e.SameOutputVal(s, mut, val)
				if val == 0 {
					baseOK = ok
				}
				each = each && ok
			}
			want := each && !stricter[deletion{n, i}]
			if got := e.SameOutput(s, mut); got != want {
				t.Errorf("%s without instruction %d (%s): SameOutput %v, want %v (valuations one by one %v)",
					n, i, s.Region[i], got, want, each)
			}
			if stricter[deletion{n, i}] && !each {
				t.Errorf("%s without instruction %d (%s) breaks a valuation on its own; the exception is stale",
					n, i, s.Region[i])
			}
			if baseOK && !each && s.Kind == discovery.PCond && lateBreak == "" {
				lateBreak = n
			}
		}
	}
	if lateBreak == "" {
		t.Error("no conditional sample has a deletion that breaks only a valuation after the base")
	}
}
