package probe

import (
	"errors"
	"testing"

	"srcg/internal/asm"
)

// TestQuorumAllTransientRetriesAndSettles is the regression test for the
// all-faulted quorum: when every run of a quorum faults transiently, the
// QuorumError (Votes==0) must classify as transient so the retry loop
// re-runs the whole quorum, and each physical fault must be counted as
// survived exactly once when the probe finally settles.
func TestQuorumAllTransientRetriesAndSettles(t *testing.T) {
	tc := &scripted{execute: append(flakes(quorumN, "rsh: dropped"),
		step{out: "A\n"}, step{out: "A\n"})}
	p := New(tc, Config{})
	out, err := p.Execute(&asm.Image{})
	if err != nil || out != "A\n" {
		t.Fatalf("Execute = %q, %v; the retried quorum must settle", out, err)
	}
	st := p.Stats()
	if st.Retries != 1 {
		t.Errorf("retries = %d; an all-faulted quorum is transient and retried once here", st.Retries)
	}
	if st.FaultsSurvived != 7 {
		t.Errorf("survived = %d; want 7 — each dropped run counted exactly once", st.FaultsSurvived)
	}
	if st.QuorumConflicts != 0 || p.Noisy() {
		t.Error("transient faults are not disagreements; the machine is not noisy")
	}
}

// TestAllTransientQuorumErrorShape pins the error value itself: Votes==0
// gets its own message, the last fault is reachable via Unwrap, and the
// error stays transient.
func TestAllTransientQuorumErrorShape(t *testing.T) {
	last := &flake{"rsh: dropped"}
	qe := &QuorumError{Runs: 3, Votes: 0, Faults: 3, Last: last}
	if !IsTransient(qe) {
		t.Error("an all-faulted quorum must be transient")
	}
	if !errors.Is(qe, last) {
		t.Error("Unwrap must expose the last transient fault")
	}
	if qe.Error() == (&QuorumError{Runs: 3, Votes: 3}).Error() {
		t.Error("Votes==0 needs a distinct message: nothing voted, nothing disagreed")
	}
}

// TestFaultAttributionCountsPhysicalFaultsOnce pins the accounting split
// between the retry loop and the quorum: a physical transient fault inside
// a failed quorum attempt must be counted as survived exactly once — at
// final settle, by the retry loop — never also as a quorum "loser". The
// script forces a conflict (raising the bar to 3), then a faulted quorum
// that conflicts again, then a clean settle; exactly one physical fault
// exists.
func TestFaultAttributionCountsPhysicalFaultsOnce(t *testing.T) {
	tc := &scripted{execute: []step{
		{out: "a"}, {out: "b"}, {out: "c"}, {out: "e"}, {out: "f"}, {out: "g"}, {out: "h"}, // seven distinct votes, no quorum
		{err: &flake{"rsh: dropped"}}, {out: "d"}, {out: "d"}, {out: "e"}, {out: "e"}, {out: "f"}, {out: "f"}, // fault eats a run; 2 < bar of 3
		{out: "d"}, {out: "d"}, {out: "d"}, // clean settle at the raised bar
	}}
	p := New(tc, Config{})
	out, err := p.Execute(&asm.Image{})
	if err != nil || out != "d" {
		t.Fatalf("Execute = %q, %v", out, err)
	}
	st := p.Stats()
	if st.FaultsSurvived != 1 {
		t.Errorf("survived = %d; want 1 — one physical fault, one tally", st.FaultsSurvived)
	}
	if st.Retries != 2 || st.QuorumConflicts != 2 || !p.Noisy() {
		t.Errorf("stats = %+v noisy=%v; want retries=2 conflicts=2 noisy", st, p.Noisy())
	}
}

// TestCacheColdWarmReplays drives the full probe chain twice against a
// shared cache with scripts sized for exactly one physical pass: the warm
// prober must replay every probe (a second physical call would exhaust a
// script and panic) and still report identical outputs and identical
// logical stats.
func TestCacheColdWarmReplays(t *testing.T) {
	cache := NewCache()
	run := func(tc *scripted) (string, Stats, *Prober) {
		p := New(tc, Config{Cache: cache})
		text, err := p.CompileC("main(){}")
		if err != nil {
			t.Fatalf("CompileC: %v", err)
		}
		u, err := p.Assemble(text)
		if err != nil {
			t.Fatalf("Assemble: %v", err)
		}
		img, err := p.Link([]*asm.Unit{u})
		if err != nil {
			t.Fatalf("Link: %v", err)
		}
		out, err := p.Execute(img)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		exp, err := p.ExecuteExpect(img, "42\n")
		if err != nil {
			t.Fatalf("ExecuteExpect: %v", err)
		}
		return out + exp, p.Stats(), p
	}

	cold := &scripted{
		compile:  []step{{out: "mov a, b"}},
		assemble: []step{{}},
		link:     []step{{}},
		execute:  []step{{out: "42\n"}, {out: "42\n"}, {out: "42\n"}},
	}
	outCold, stCold, _ := run(cold)
	if stCold.ExpectAccepts != 1 {
		t.Fatalf("cold expect_accepts = %d; want 1", stCold.ExpectAccepts)
	}

	// The warm toolchain has empty scripts: any physical call panics.
	outWarm, stWarm, pw := run(&scripted{})
	if outWarm != outCold {
		t.Errorf("warm output %q != cold output %q", outWarm, outCold)
	}
	if stWarm != stCold {
		t.Errorf("replayed stats drifted:\ncold %+v\nwarm %+v", stCold, stWarm)
	}
	if hits := pw.Tracer().Counter(CtrCacheHits); hits != 5 {
		t.Errorf("warm cache hits = %d; want 5 (compile, assemble, link, execute, execute-expect)", hits)
	}
	if misses := pw.Tracer().Counter(CtrCacheMisses); misses != 0 {
		t.Errorf("warm cache misses = %d; want 0", misses)
	}
}

// TestCacheExpectNeverSharesExecuteEntry: a one-run expect acceptance must
// never answer a plain Execute (which promised a quorum), nor an expect
// probe hoping for a different output — each is its own entry.
func TestCacheExpectNeverSharesExecuteEntry(t *testing.T) {
	cache := NewCache()
	p := New(&scripted{
		assemble: []step{{}},
		link:     []step{{}},
		execute:  []step{{out: "42\n"}, {out: "42\n"}, {out: "42\n"}, {out: "42\n"}, {out: "42\n"}},
	}, Config{Cache: cache})
	u, err := p.Assemble("mov a, b")
	if err != nil {
		t.Fatal(err)
	}
	img, err := p.Link([]*asm.Unit{u})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExecuteExpect(img, "42\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(img); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExecuteExpect(img, "41\n"); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 5 {
		t.Errorf("cache entries = %d; want 5 (assemble, link, and three distinct executes)", cache.Len())
	}
	if hits := p.Tracer().Counter(CtrCacheHits); hits != 0 {
		t.Errorf("cache hits = %d; an expect-execute shared an entry", hits)
	}
	if st := p.Stats(); st.QuorumRuns != 1+2+2 || st.ExpectAccepts != 1 {
		t.Errorf("stats = %+v; want quorum_runs=5 expect_accepts=1", st)
	}
}

// TestCacheRefusesUnquietOutcomes: outcomes that consumed retries or were
// observed on a noisy machine depend on context the cache key cannot see,
// so they must not be memoized.
func TestCacheRefusesUnquietOutcomes(t *testing.T) {
	cache := NewCache()
	c := Config{Cache: cache}
	tc := &scripted{
		compile: []step{
			{err: &flake{"compiler crashed"}}, {out: "mov a, b"}, // retried → uncacheable
			{out: "mov a, b"}, // quiet → cached
		},
	}
	p := New(tc, c)
	if _, err := p.CompileC("main(){}"); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatalf("a retried probe was cached (len=%d)", cache.Len())
	}
	if _, err := p.CompileC("main(){}"); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("a quiet probe was not cached (len=%d)", cache.Len())
	}

	// A noisy machine invalidates caching wholesale: once the latch is set,
	// no further outcome is stored.
	noisyTC := &scripted{execute: []step{
		{out: "4X\n"}, {out: "42\n"}, {out: "42\n"}, {out: "42\n"}, // conflict → noisy
		{out: "7\n"}, {out: "7\n"}, {out: "7\n"}, // quiet runs, but on a caught liar
	}}
	pn := New(noisyTC, c)
	if _, err := pn.Execute(&asm.Image{}); err != nil {
		t.Fatal(err)
	}
	if _, err := pn.Execute(&asm.Image{}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("a noisy prober stored outcomes (len=%d)", cache.Len())
	}
}

// TestCacheOccupancyAccounting pins the Len/Bytes gauges the core report
// surfaces as probe.cache_entries / probe.cache_bytes: the cold chain
// leaves four memoized probes and a byte figure sized from the
// content-address keys plus memoized string outputs, a warm replay adds
// nothing, and first-write-wins never double-counts a key.
func TestCacheOccupancyAccounting(t *testing.T) {
	cache := NewCache()
	c := Config{Cache: cache}
	chain := func(tc *scripted) {
		p := New(tc, c)
		text, err := p.CompileC("main(){}")
		if err != nil {
			t.Fatalf("CompileC: %v", err)
		}
		u, err := p.Assemble(text)
		if err != nil {
			t.Fatalf("Assemble: %v", err)
		}
		img, err := p.Link([]*asm.Unit{u})
		if err != nil {
			t.Fatalf("Link: %v", err)
		}
		if _, err := p.Execute(img); err != nil {
			t.Fatalf("Execute: %v", err)
		}
	}
	chain(&scripted{
		compile:  []step{{out: "mov a, b"}},
		assemble: []step{{}},
		link:     []step{{}},
		execute:  []step{{out: "42\n"}, {out: "42\n"}},
	})
	if cache.Len() != 4 {
		t.Fatalf("cold chain memoized %d probes, want 4", cache.Len())
	}
	occupied := cache.Bytes()
	// The keys carry the whole C source and assembly text; the figure must
	// at least cover those plus the memoized outputs.
	if floor := int64(len("main(){}") + 2*len("mov a, b") + 2*len("42\n")); occupied < floor {
		t.Errorf("Bytes() = %d, want at least %d (keys + string values)", occupied, floor)
	}

	// A warm replay (empty scripts: any physical call panics) is pure hits
	// and must leave the occupancy untouched.
	chain(&scripted{})
	if cache.Len() != 4 || cache.Bytes() != occupied {
		t.Errorf("warm replay changed occupancy: len=%d bytes=%d, want 4/%d",
			cache.Len(), cache.Bytes(), occupied)
	}

	// First write wins, and so does its size: re-storing an occupied key —
	// two workers racing on the same probe — must not grow the figure.
	k := entryKey{op: "op", payload: "xyz"}
	cache.store(k, &cacheEntry{val: "v"})
	grown := cache.Bytes() - occupied
	if want := int64(len("op") + len("xyz") + len("v")); grown != want {
		t.Errorf("storing one entry grew Bytes by %d, want %d", grown, want)
	}
	cache.store(k, &cacheEntry{val: "a much longer losing value"})
	if cache.Len() != 5 || cache.Bytes() != occupied+grown {
		t.Errorf("second store of an occupied key changed occupancy: len=%d bytes=%d",
			cache.Len(), cache.Bytes())
	}
}
