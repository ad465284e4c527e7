package probe

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"srcg/internal/asm"
	"srcg/internal/obs"
	"srcg/internal/target"
)

// flake is the transient fault the scripts inject.
type flake struct{ msg string }

func (f *flake) Error() string   { return f.msg }
func (f *flake) Transient() bool { return true }

// step scripts one toolchain call: either an error to return or an output.
type step struct {
	out string
	err error
}

// scripted is a toolchain whose every method plays back a per-op script.
// Running off the end of a script is a test bug and panics.
type scripted struct {
	compile  []step
	assemble []step
	link     []step
	execute  []step
}

func (s *scripted) pop(name string, script *[]step) step {
	if len(*script) == 0 {
		panic("scripted toolchain: " + name + " script exhausted")
	}
	st := (*script)[0]
	*script = (*script)[1:]
	return st
}

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) CompileC(src string) (string, error) {
	st := s.pop("compile", &s.compile)
	return st.out, st.err
}

func (s *scripted) Assemble(text string) (*asm.Unit, error) {
	st := s.pop("assemble", &s.assemble)
	if st.err != nil {
		return nil, st.err
	}
	return &asm.Unit{}, nil
}

func (s *scripted) Link(units []*asm.Unit) (*asm.Image, error) {
	st := s.pop("link", &s.link)
	if st.err != nil {
		return nil, st.err
	}
	return &asm.Image{}, nil
}

func (s *scripted) Execute(img *asm.Image) (string, error) {
	st := s.pop("execute", &s.execute)
	return st.out, st.err
}

var _ target.Toolchain = (*scripted)(nil)

// recorder is a sink keeping every event its tracer emits.
type recorder struct{ events []obs.Event }

func (r *recorder) Emit(e obs.Event) { r.events = append(r.events, e) }
func (r *recorder) Flush() error     { return nil }

func TestRetryAbsorbsTransientFaults(t *testing.T) {
	tc := &scripted{compile: []step{
		{err: &flake{"compiler crashed"}},
		{err: &flake{"compiler crashed again"}},
		{out: "mov a, b"},
	}}
	p := New(tc, Config{})
	out, err := p.CompileC("main(){}")
	if err != nil || out != "mov a, b" {
		t.Fatalf("CompileC = %q, %v; want the third attempt's output", out, err)
	}
	st := p.Stats()
	if st.Probes != 1 || st.Attempts != 3 || st.Retries != 2 || st.FaultsSurvived != 2 {
		t.Errorf("stats = %+v; want probes=1 attempts=3 retries=2 survived=2", st)
	}
	// Backoff schedule is virtual and pure: 1ms + 2ms.
	if st.Backoff != 3*time.Millisecond {
		t.Errorf("backoff = %v; want 3ms", st.Backoff)
	}
}

func TestPermanentErrorsPassThroughUntouched(t *testing.T) {
	reject := errors.New("as: unknown opcode `frob'")
	tc := &scripted{assemble: []step{{err: reject}}}
	p := New(tc, Config{})
	if _, err := p.Assemble("frob r1"); err != reject {
		t.Fatalf("Assemble err = %v; want the assembler's reject verbatim", err)
	}
	st := p.Stats()
	if st.Retries != 0 || st.Attempts != 1 {
		t.Errorf("a permanent error must not be retried: %+v", st)
	}
}

// flakes scripts n transient faults in a row.
func flakes(n int, msg string) []step {
	script := make([]step, n)
	for i := range script {
		script[i] = step{err: &flake{msg}}
	}
	return script
}

func TestRetryBudgetExhaustion(t *testing.T) {
	tc := &scripted{link: flakes(maxRetries+1, "ld: dropped")}
	p := New(tc, Config{})
	_, err := p.Link(nil)
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v; want *ExhaustedError", err)
	}
	if ex.Op != "link" || ex.Attempts != 9 {
		t.Errorf("ExhaustedError = %+v; want op=link attempts=9", ex)
	}
	if IsTransient(err) {
		t.Error("exhaustion must be permanent even though its cause was transient")
	}
	st := p.Stats()
	if st.Exhausted != 1 || st.Attempts != 9 || st.Retries != 8 {
		t.Errorf("stats = %+v; want exhausted=1 attempts=9 retries=8", st)
	}
}

// TestBackoffScheduleIsCappedAndDeterministic reads each scheduled delay
// from the retry events: the schedule doubles up to the cap, and the
// accounted total matches what the events announced.
func TestBackoffScheduleIsCappedAndDeterministic(t *testing.T) {
	rec := &recorder{}
	p := New(&scripted{compile: flakes(maxRetries+1, "busy")}, Config{Trace: obs.New(nil, rec)})
	p.CompileC("x")
	var scheduled []time.Duration
	for _, e := range rec.events {
		if e.Kind == obs.KRetry {
			scheduled = append(scheduled, e.Dur)
		}
	}
	// 1ms doubling to 64ms, then capped at 100ms.
	want := []time.Duration{1e6, 2e6, 4e6, 8e6, 16e6, 32e6, 64e6, 100e6}
	if len(scheduled) != len(want) {
		t.Fatalf("retry events scheduled %v; want %v", scheduled, want)
	}
	var total time.Duration
	for i, d := range scheduled {
		if d != want[i] {
			t.Errorf("backoff[%d] = %v; want %v", i, d, want[i])
		}
		total += d
	}
	if st := p.Stats(); st.Backoff != total {
		t.Errorf("accounted backoff %v != scheduled %v", st.Backoff, total)
	}
}

func TestQuorumAcceptsTwoAgreeingRuns(t *testing.T) {
	tc := &scripted{execute: []step{{out: "42\n"}, {out: "42\n"}}}
	p := New(tc, Config{})
	out, err := p.Execute(&asm.Image{})
	if err != nil || out != "42\n" {
		t.Fatalf("Execute = %q, %v; want 42", out, err)
	}
	st := p.Stats()
	if st.QuorumRuns != 2 || st.QuorumConflicts != 0 {
		t.Errorf("stats = %+v; a clean machine pays exactly 2 runs", st)
	}
	if p.Noisy() {
		t.Error("two agreeing runs must not mark the machine noisy")
	}
}

func TestQuorumOutvotesNoiseAndEscalates(t *testing.T) {
	tc := &scripted{execute: []step{
		{out: "4X\n"}, {out: "42\n"}, {out: "42\n"}, {out: "42\n"}, // noisy quorum
		{out: "7\n"}, {out: "7\n"}, {out: "7\n"}, // later clean probe pays the raised bar
	}}
	p := New(tc, Config{})
	out, err := p.Execute(&asm.Image{})
	if err != nil || out != "42\n" {
		t.Fatalf("Execute = %q, %v; the majority output must win", out, err)
	}
	st := p.Stats()
	if st.QuorumConflicts != 1 || !p.Noisy() {
		t.Errorf("a disagreeing run must flag the machine noisy: %+v", st)
	}
	if st.FaultsSurvived != 1 {
		t.Errorf("survived = %d; the one garbled run was absorbed", st.FaultsSurvived)
	}
	// Sticky escalation: the next execution needs 3 agreeing runs.
	if out, err = p.Execute(&asm.Image{}); err != nil || out != "7\n" {
		t.Fatalf("second Execute = %q, %v", out, err)
	}
	if got := p.Stats().QuorumRuns; got != 4+3 {
		t.Errorf("quorum runs = %d; want 7 (4 noisy + 3 escalated)", got)
	}
}

func TestQuorumTransientFaultsConsumeRunsWithoutVoting(t *testing.T) {
	tc := &scripted{execute: []step{
		{err: &flake{"rsh: connection dropped"}}, {out: "9\n"}, {out: "9\n"},
	}}
	p := New(tc, Config{})
	out, err := p.Execute(&asm.Image{})
	if err != nil || out != "9\n" {
		t.Fatalf("Execute = %q, %v", out, err)
	}
	st := p.Stats()
	if st.QuorumConflicts != 0 {
		t.Error("a transient fault is not a disagreement")
	}
	if st.FaultsSurvived != 1 {
		t.Errorf("survived = %d; the dropped connection was absorbed", st.FaultsSurvived)
	}
}

func TestQuorumExhaustionRetriesWholeQuorum(t *testing.T) {
	tc := &scripted{execute: []step{
		{out: "a"}, {out: "b"}, {out: "c"}, {out: "e"}, {out: "f"}, {out: "g"}, {out: "h"}, // no quorum in 7 runs
		{out: "d"}, {out: "d"}, {out: "d"}, // retried quorum at the raised bar
	}}
	p := New(tc, Config{})
	out, err := p.Execute(&asm.Image{})
	if err != nil || out != "d" {
		t.Fatalf("Execute = %q, %v; the retried quorum must settle", out, err)
	}
	st := p.Stats()
	if st.Retries != 1 {
		t.Errorf("retries = %d; a failed quorum is transient and retried once here", st.Retries)
	}
}

func TestPermanentExecutionErrorsVoteLikeOutputs(t *testing.T) {
	fault := errors.New("machine: divide by zero at 0x40")
	tc := &scripted{execute: []step{{out: "", err: fault}, {out: "", err: fault}}}
	p := New(tc, Config{})
	_, err := p.Execute(&asm.Image{})
	if err == nil || err.Error() != fault.Error() {
		t.Fatalf("err = %v; a reproducible fault is an observation, not noise", err)
	}
	if st := p.Stats(); st.QuorumRuns != 2 {
		t.Errorf("stats = %+v; two agreeing faults form a quorum", st)
	}
}

// TestExpectFirstRunMatchSettlesAlone: on a quiet prober, one run that
// prints the expected output is the whole quorum.
func TestExpectFirstRunMatchSettlesAlone(t *testing.T) {
	p := New(&scripted{execute: []step{{out: "42\n"}}}, Config{})
	out, err := p.ExecuteExpect(&asm.Image{}, "42\n")
	if err != nil || out != "42\n" {
		t.Fatalf("ExecuteExpect = %q, %v; want 42", out, err)
	}
	st := p.Stats()
	if st.Attempts != 1 || st.QuorumRuns != 1 || st.ExpectAccepts != 1 {
		t.Errorf("stats = %+v; want attempts=1 quorum_runs=1 expect_accepts=1", st)
	}
	if p.Noisy() {
		t.Error("a settled run must not mark the machine noisy")
	}
}

// TestExpectMismatchCostsTodaysQuorum: a first run that differs from want
// is the first vote of the ordinary quorum, so the answer and its cost are
// exactly Execute's.
func TestExpectMismatchCostsTodaysQuorum(t *testing.T) {
	script := func() *scripted { return &scripted{execute: []step{{out: "41\n"}, {out: "41\n"}}} }
	pe := New(script(), Config{})
	got, gerr := pe.ExecuteExpect(&asm.Image{}, "42\n")
	p := New(script(), Config{})
	want, werr := p.Execute(&asm.Image{})
	if got != want || gerr != werr {
		t.Errorf("ExecuteExpect = %q, %v; Execute = %q, %v", got, gerr, want, werr)
	}
	if st := pe.Stats(); st.Attempts != 2 || st.QuorumRuns != 2 || st.ExpectAccepts != 0 {
		t.Errorf("stats = %+v; want attempts=2 quorum_runs=2 expect_accepts=0", st)
	}
}

// TestExpectTransientThenMatchSettles: a transient fault does not vote, so
// the first voting run may still settle alone; the fault is survived once.
func TestExpectTransientThenMatchSettles(t *testing.T) {
	tc := &scripted{execute: []step{{err: &flake{"rsh: dropped"}}, {out: "42\n"}}}
	p := New(tc, Config{})
	out, err := p.ExecuteExpect(&asm.Image{}, "42\n")
	if err != nil || out != "42\n" {
		t.Fatalf("ExecuteExpect = %q, %v; want 42", out, err)
	}
	st := p.Stats()
	if st.Attempts != 2 || st.ExpectAccepts != 1 || st.FaultsSurvived != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v; want attempts=2 expect_accepts=1 faults_survived=1 retries=0", st)
	}
}

// TestExpectLatchedProberNeedsThreeVotes: once the machine has been caught
// lying, a run forged into exactly want is only one vote — the truth,
// printed three times, outvotes it.
func TestExpectLatchedProberNeedsThreeVotes(t *testing.T) {
	tc := &scripted{execute: []step{
		{out: "4X\n"}, {out: "42\n"}, {out: "42\n"}, {out: "42\n"}, // conflict → latched
		{out: "7\n"}, {out: "8\n"}, {out: "8\n"}, {out: "8\n"}, // forged want, then the truth
	}}
	p := New(tc, Config{})
	if _, err := p.Execute(&asm.Image{}); err != nil || !p.Noisy() {
		t.Fatalf("setup: Execute err=%v noisy=%v; want a latched prober", err, p.Noisy())
	}
	out, err := p.ExecuteExpect(&asm.Image{}, "7\n")
	if err != nil || out != "8\n" {
		t.Fatalf("ExecuteExpect = %q, %v; the forged run must be outvoted", out, err)
	}
	st := p.Stats()
	if st.ExpectAccepts != 0 || st.QuorumRuns != 4+4 {
		t.Errorf("stats = %+v; want expect_accepts=0 quorum_runs=8", st)
	}
}

func TestIsTransientWalksWrappedErrors(t *testing.T) {
	base := &flake{"boom"}
	wrapped := fmt.Errorf("compile front half: %w", fmt.Errorf("inner: %w", base))
	if !IsTransient(wrapped) {
		t.Error("IsTransient must walk the Unwrap chain")
	}
	if IsTransient(errors.New("as: syntax error")) {
		t.Error("unmarked errors are permanent")
	}
	if !IsTransient(&QuorumError{Runs: 7, Votes: 7}) {
		t.Error("a failed quorum is transient: the retry loop re-runs it")
	}
}
