package main

import (
	"sync/atomic"
	"time"

	"srcg/internal/asm"
	"srcg/internal/target"
)

// op indexes the four toolchain operations a meter tallies.
type op int

const (
	opCompile op = iota
	opAssemble
	opLink
	opExecute
	numOps
)

var opNames = [numOps]string{"compile", "assemble", "link", "execute"}

// meter is a target.Toolchain decorator that counts every call per
// operation, the calls that returned an error, and, when timed, the wall
// time spent inside the wrapped toolchain. It is safe for concurrent use:
// pooled discovery calls it from several workers at once.
//
// A discovery stack holds two meters. The outer one wraps everything
// (fault injector included) and counts the physical calls the probe layer
// makes, the §7.2 round-trip cost. The inner one wraps the bare simulator
// and times it, so injected faults never reach its tallies.
type meter struct {
	inner target.Toolchain
	timed bool
	calls [numOps]atomic.Int64
	errs  [numOps]atomic.Int64
	ns    [numOps]atomic.Int64
}

var _ target.Toolchain = (*meter)(nil)

func newMeter(inner target.Toolchain, timed bool) *meter {
	return &meter{inner: inner, timed: timed}
}

func (m *meter) Name() string { return m.inner.Name() }

func (m *meter) CompileC(src string) (string, error) {
	start := m.start()
	text, err := m.inner.CompileC(src)
	m.done(opCompile, start, err)
	return text, err
}

func (m *meter) Assemble(text string) (*asm.Unit, error) {
	start := m.start()
	u, err := m.inner.Assemble(text)
	m.done(opAssemble, start, err)
	return u, err
}

func (m *meter) Link(units []*asm.Unit) (*asm.Image, error) {
	start := m.start()
	img, err := m.inner.Link(units)
	m.done(opLink, start, err)
	return img, err
}

func (m *meter) Execute(img *asm.Image) (string, error) {
	start := m.start()
	out, err := m.inner.Execute(img)
	m.done(opExecute, start, err)
	return out, err
}

func (m *meter) start() time.Time {
	if m.timed {
		return time.Now()
	}
	return time.Time{}
}

func (m *meter) done(o op, start time.Time, err error) {
	m.calls[o].Add(1)
	if err != nil {
		m.errs[o].Add(1)
	}
	if m.timed {
		m.ns[o].Add(int64(time.Since(start)))
	}
}

// tally is a point-in-time copy of a meter's counters.
type tally struct {
	calls, errs, ns [numOps]int64
}

func (m *meter) snapshot() tally {
	var t tally
	for o := op(0); o < numOps; o++ {
		t.calls[o] = m.calls[o].Load()
		t.errs[o] = m.errs[o].Load()
		t.ns[o] = m.ns[o].Load()
	}
	return t
}

// sub returns the counts accumulated between an earlier snapshot and t.
func (t tally) sub(earlier tally) tally {
	for o := op(0); o < numOps; o++ {
		t.calls[o] -= earlier.calls[o]
		t.errs[o] -= earlier.errs[o]
		t.ns[o] -= earlier.ns[o]
	}
	return t
}

func (t tally) totalCalls() int64 {
	var n int64
	for _, c := range t.calls {
		n += c
	}
	return n
}

func (t tally) busy() time.Duration {
	var n int64
	for _, ns := range t.ns {
		n += ns
	}
	return time.Duration(n)
}
