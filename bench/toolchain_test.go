package main

import (
	"errors"
	"sync"
	"testing"

	"srcg"
	"srcg/internal/asm"
)

// fakeToolchain answers every call at once; Assemble rejects "bad".
type fakeToolchain struct{}

func (fakeToolchain) Name() string                         { return "fake" }
func (fakeToolchain) CompileC(src string) (string, error)  { return src, nil }
func (fakeToolchain) Link([]*asm.Unit) (*asm.Image, error) { return &asm.Image{}, nil }
func (fakeToolchain) Execute(*asm.Image) (string, error)   { return "ok\n", nil }
func (fakeToolchain) Assemble(text string) (*asm.Unit, error) {
	if text == "bad" {
		return nil, errors.New("rejected")
	}
	return &asm.Unit{}, nil
}

// TestMeterConcurrentCalls hammers one timed meter from several
// goroutines; under -race it proves the tallies are safe to share.
func TestMeterConcurrentCalls(t *testing.T) {
	m := newMeter(fakeToolchain{}, true)
	const workers, calls = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				_, _ = m.CompileC("x")
				_, _ = m.Assemble("bad")
				_, _ = m.Link(nil)
				_, _ = m.Execute(nil)
			}
		}()
	}
	wg.Wait()
	got := m.snapshot()
	for o := op(0); o < numOps; o++ {
		if got.calls[o] != workers*calls {
			t.Errorf("%s: %d calls, want %d", opNames[o], got.calls[o], workers*calls)
		}
	}
	if got.errs[opAssemble] != workers*calls || got.errs[opExecute] != 0 {
		t.Errorf("errors: assemble %d execute %d, want %d and 0", got.errs[opAssemble], got.errs[opExecute], workers*calls)
	}
	if got.busy() <= 0 {
		t.Error("timed meter recorded no busy time")
	}
	untimed := newMeter(fakeToolchain{}, false)
	_, _ = untimed.Execute(nil)
	if untimed.snapshot().busy() != 0 {
		t.Error("untimed meter recorded busy time")
	}
}

// TestStackCountsEveryPhysicalCall drives real discoveries through a
// metered stack: pooled at two workers, and serial under the fault
// injector. The outer meter must see exactly the attempts the probe layer
// counts; the inner meter sees only calls that reach the simulator.
func TestStackCountsEveryPhysicalCall(t *testing.T) {
	for _, w := range []workload{
		{name: "parallel", workers: 2},
		{name: "faulty", workers: 1, faulty: true},
	} {
		t.Run(w.name, func(t *testing.T) {
			s := w.stack("vax", true)
			d, err := srcg.Discover(s.tc, w.options(1, nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			if p := callsProblem(s, d, nil); p != "" {
				t.Fatal(p)
			}
			outer, inner := s.calls.snapshot(), s.sim.snapshot()
			switch {
			case w.faulty && inner.totalCalls() >= outer.totalCalls():
				t.Errorf("simulator saw %d calls, outer meter %d: injected faults should stop short of it",
					inner.totalCalls(), outer.totalCalls())
			case !w.faulty && inner.calls != outer.calls:
				t.Errorf("simulator calls %v, outer meter %v", inner.calls, outer.calls)
			}
			if inner.busy() <= 0 || outer.busy() != 0 {
				t.Errorf("busy: simulator %v, outer %v; only the simulator is timed", inner.busy(), outer.busy())
			}
		})
	}
}
