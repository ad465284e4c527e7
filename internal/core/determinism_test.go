package core

import (
	"bytes"
	"os"
	"strconv"
	"testing"

	"srcg/internal/obs"
	"srcg/internal/probe"
)

// parallelWorkers is the pool width the determinism tests exercise beside
// the serial baseline. SRCG_WORKERS overrides it (CI runs a matrix).
func parallelWorkers() int {
	if s := os.Getenv("SRCG_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 4
}

// TestDoubleRunDiscoveryByteIdentical is the determinism contract's
// end-to-end backstop: two complete discoveries of the same target under
// the same options must produce byte-identical reports and specs. The
// static analyzers in internal/check/analyzers forbid the obvious
// nondeterminism sources (wall clock, global rand, map-order output,
// mutable package state); this test catches whatever slips past them —
// probe-order drift, allocation-order artifacts, anything. CI runs it
// under -race, so it also doubles as a data-race probe over the full
// pipeline.
func TestDoubleRunDiscoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("ten full discoveries")
	}
	for _, tt := range gauntletTargets {
		tt := tt
		t.Run(tt.arch, func(t *testing.T) {
			t.Parallel()
			// Each run gets its own virtual-clock tracer with a JSONL
			// sink: the full telemetry stream — timestamps included —
			// must be byte-identical between identical runs.
			var trace1, trace2, trace3 bytes.Buffer
			tr1 := obs.New(nil, obs.NewJSONLSink(&trace1))
			tr2 := obs.New(nil, obs.NewJSONLSink(&trace2))
			tr3 := obs.New(nil, obs.NewJSONLSink(&trace3))
			d1, err := Discover(tt.ctor(), Options{Seed: 1, Check: true, Trace: tr1})
			if err != nil {
				t.Fatalf("first discovery failed: %v", err)
			}
			d2, err := Discover(tt.ctor(), Options{Seed: 1, Check: true, Trace: tr2})
			if err != nil {
				t.Fatalf("second discovery failed: %v", err)
			}
			// Third run: same options, pooled. The parallel engine's ordered
			// reduction must make worker count invisible — report, spec, and
			// every trace byte included.
			workers := parallelWorkers()
			d3, err := Discover(tt.ctor(), Options{Seed: 1, Check: true, Trace: tr3, Workers: workers})
			if err != nil {
				t.Fatalf("parallel discovery failed: %v", err)
			}
			if err := tr1.Flush(); err != nil {
				t.Fatalf("flush run1 trace: %v", err)
			}
			if err := tr2.Flush(); err != nil {
				t.Fatalf("flush run2 trace: %v", err)
			}
			if err := tr3.Flush(); err != nil {
				t.Fatalf("flush run3 trace: %v", err)
			}
			if !bytes.Equal(trace1.Bytes(), trace2.Bytes()) {
				t.Errorf("JSONL traces differ between identical runs:\n%s",
					firstDiffLine(trace1.String(), trace2.String()))
			}
			if !bytes.Equal(trace1.Bytes(), trace3.Bytes()) {
				t.Errorf("JSONL trace at workers=%d differs from serial run:\n%s",
					workers, firstDiffLine(trace1.String(), trace3.String()))
			}
			if r1, r3 := d1.Report(), d3.Report(); r1 != r3 {
				t.Errorf("report at workers=%d differs from serial run:\n%s",
					workers, firstDiffLine(r1, r3))
			}
			if trace1.Len() == 0 {
				t.Error("trace is empty — the pipeline emitted no telemetry")
			}
			r1, r2 := d1.Report(), d2.Report()
			if r1 != r2 {
				t.Errorf("reports differ between identical runs:\n%s",
					firstDiffLine(r1, r2))
			}
			if d1.Spec == nil || d2.Spec == nil {
				t.Fatalf("spec missing: run1=%v run2=%v", d1.SpecErr, d2.SpecErr)
			}
			b1 := d1.Spec.RenderBEG(d1.Model)
			b2 := d2.Spec.RenderBEG(d2.Model)
			if b1 != b2 {
				t.Errorf("rendered BEG specs differ between identical runs:\n%s",
					firstDiffLine(b1, b2))
			}
			if d3.Spec != nil {
				if b3 := d3.Spec.RenderBEG(d3.Model); b1 != b3 {
					t.Errorf("rendered BEG spec at workers=%d differs from serial run:\n%s",
						workers, firstDiffLine(b1, b3))
				}
			} else {
				t.Errorf("parallel run produced no spec: %v", d3.SpecErr)
			}
			if d1.Rig.Stats().Executions != d2.Rig.Stats().Executions {
				t.Errorf("execution counts differ: %d vs %d — the probe sequence "+
					"itself is nondeterministic", d1.Rig.Stats().Executions,
					d2.Rig.Stats().Executions)
			}
		})
	}
}

// TestProbeCacheColdWarm pins the probe cache's correctness contract: a
// discovery against a cold shared cache and a second discovery replaying
// from the now-warm cache must produce byte-identical reports, specs, and
// telemetry traces (cache counters are unsealed, so the sealed stream
// cannot see the cache state), while the warm run demonstrably replays —
// its probe.cache_hits counter exceeds the cold run's. A third discovery
// without any cache runs its probes inline rather than on forked
// tracers, and its trace must match the cold one byte for byte too.
func TestProbeCacheColdWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("two full discoveries")
	}
	cache := probe.NewCache()
	var cold, warm, none bytes.Buffer
	trCold := obs.New(nil, obs.NewJSONLSink(&cold))
	trWarm := obs.New(nil, obs.NewJSONLSink(&warm))
	trNone := obs.New(nil, obs.NewJSONLSink(&none))
	opts := Options{Seed: 1, Workers: parallelWorkers(), Cache: cache}

	o1 := opts
	o1.Trace = trCold
	d1, err := Discover(gauntletTargets[0].ctor(), o1)
	if err != nil {
		t.Fatalf("cold discovery failed: %v", err)
	}
	coldHits := trCold.Counter(probe.CtrCacheHits)
	if cache.Len() == 0 {
		t.Fatal("cold run stored nothing in the cache")
	}

	o2 := opts
	o2.Trace = trWarm
	d2, err := Discover(gauntletTargets[0].ctor(), o2)
	if err != nil {
		t.Fatalf("warm discovery failed: %v", err)
	}
	warmHits := trWarm.Counter(probe.CtrCacheHits)
	if warmHits == 0 {
		t.Error("warm run recorded no cache hits")
	}
	if warmHits <= coldHits {
		t.Errorf("warm run hit the cache %d times, cold run %d — the warm run should replay more", warmHits, coldHits)
	}

	o3 := opts
	o3.Trace = trNone
	o3.Cache = nil
	if _, err := Discover(gauntletTargets[0].ctor(), o3); err != nil {
		t.Fatalf("cache-less discovery failed: %v", err)
	}

	for _, tr := range []*obs.Tracer{trCold, trWarm, trNone} {
		if err := tr.Flush(); err != nil {
			t.Fatalf("flush trace: %v", err)
		}
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("JSONL traces differ between cold and warm cache runs:\n%s",
			firstDiffLine(cold.String(), warm.String()))
	}
	if !bytes.Equal(cold.Bytes(), none.Bytes()) {
		t.Errorf("JSONL traces differ between cold-cache and cache-less runs:\n%s",
			firstDiffLine(cold.String(), none.String()))
	}
	if r1, r2 := d1.Report(), d2.Report(); r1 != r2 {
		t.Errorf("reports differ between cold and warm cache runs:\n%s", firstDiffLine(r1, r2))
	}
	if d1.Spec == nil || d2.Spec == nil {
		t.Fatalf("spec missing: cold=%v warm=%v", d1.SpecErr, d2.SpecErr)
	}
	if b1, b2 := d1.Spec.RenderBEG(d1.Model), d2.Spec.RenderBEG(d2.Model); b1 != b2 {
		t.Errorf("rendered BEG specs differ between cold and warm cache runs:\n%s", firstDiffLine(b1, b2))
	}
}

// firstDiffLine renders the first line where two texts diverge, with a
// little context, so a failure is diagnosable without dumping both specs.
func firstDiffLine(a, b string) string {
	la, lb := splitLines(a), splitLines(b)
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return "line " + strconv.Itoa(i+1) + ":\n  run1: " + la[i] + "\n  run2: " + lb[i]
		}
	}
	return "line " + strconv.Itoa(n+1) + ": one run has " + strconv.Itoa(len(la)) +
		" lines, the other " + strconv.Itoa(len(lb))
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	return append(lines, s[start:])
}
