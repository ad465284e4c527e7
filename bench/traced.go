package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"srcg"
	"srcg/internal/asm"
	"srcg/internal/cc"
	"srcg/internal/discovery"
	"srcg/internal/extract"
	"srcg/internal/ir"
	"srcg/internal/obs"
	"srcg/internal/pool"
	"srcg/internal/probe"
	"srcg/internal/target"
)

// tracedPhases are the discovery spans the traced run attributes wall
// time to, by self time (the bisection span nests inside the lexer's).
var tracedPhases = []string{
	obs.PhaseLexerBootstrap,
	obs.PhaseAssemblerBisection,
	obs.PhaseMutationAnalysis,
	obs.PhaseReverseInterp,
	obs.PhaseSynthesis,
}

// profiles names the files -cpuprofile and -memprofile write ("" = none).
type profiles struct{ cpu, mem string }

// traced runs one extra discovery per target with a wall-clock tracer and
// the simulator timed, then replays single layers through their public
// functions. It returns the per-layer metrics; untracedS is the timed
// phase's wall time per pass, the base of the tracing overhead.
//
// On discover-warm the traced discovery replays from a cache filled just
// before it, also through the timed simulator: the fill is the only
// toolchain work that workload does, so target.* there measures set-up.
func (r *runner) traced(untracedS float64, prof profiles) (map[string]metric, error) {
	if prof.cpu != "" {
		f, err := os.Create(prof.cpu)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	var (
		phases   = map[string]time.Duration{}
		ctr      = map[string]int64{}
		sim      tally
		wall     time.Duration
		busy     time.Duration
		selfSum  time.Duration
		injected int
		solveS   float64
		solveAl  float64
	)
	for _, arch := range srcg.TargetNames() {
		s := r.stack(arch, true)
		var cache *probe.Cache
		if r.warm {
			cache = probe.NewCache()
			d, err := srcg.Discover(s.tc, r.options(r.seed, cache, nil))
			r.chk.check(arch, d, err, "")
		}
		before := s.sim.snapshot()
		tr := obs.New(obs.NewWallClock())
		t0 := time.Now()
		d, err := srcg.Discover(s.tc, r.options(r.seed, cache, tr))
		dt := time.Since(t0)
		during := s.sim.snapshot().sub(before)
		if err != nil {
			r.chk.check(arch, d, err, "")
			continue
		}
		wall += dt
		busy += during.busy()
		for _, p := range tr.PhaseSummary() {
			phases[p.Name] += p.Self
			selfSum += p.Self
		}
		for _, c := range tr.Counters() {
			ctr[c.Name] += c.Value
		}
		if s.flt != nil {
			injected += s.flt.InjectedTotal()
		}
		sec, allocs, problem := replayExtract(d)
		solveS += sec
		solveAl += allocs
		if problem == "" {
			problem = callsProblem(s, d, cache)
		}
		// Validation joins d's tracer, so it runs after the reads above.
		r.chk.check(arch, d, nil, problem)
		sim = addTally(sim, s.sim.snapshot())
	}
	if prof.mem != "" {
		runtime.GC()
		if err := writeHeapProfile(prof.mem); err != nil {
			return nil, err
		}
	}

	out := map[string]metric{}
	for _, p := range tracedPhases {
		out["phase."+p+"_s"] = metric{Value: phases[p].Seconds(), Unit: "s"}
	}
	out["phase.unattributed_s"] = metric{Value: (wall - selfSum).Seconds(), Unit: "s"}
	out["trace_overhead_frac"] = metric{Value: wall.Seconds()/untracedS - 1, Unit: "fraction"}
	for o := op(0); o < numOps; o++ {
		out["target."+opNames[o]+".calls"] = metric{Value: float64(sim.calls[o]), Unit: "count"}
		out["target."+opNames[o]+".s"] = metric{Value: time.Duration(sim.ns[o]).Seconds(), Unit: "s"}
	}
	out["target.rejects"] = metric{Value: float64(sim.errs[opAssemble]), Unit: "count"}
	out["target.busy_frac"] = metric{Value: ratio(busy.Seconds(), wall.Seconds()), Unit: "fraction"}
	out["core.self_s"] = metric{Value: (wall - busy).Seconds(), Unit: "s"}
	for _, name := range []string{
		probe.CtrProbes, probe.CtrAttempts, probe.CtrRetries, probe.CtrQuorumRuns,
		probe.CtrQuorumConflicts, probe.CtrCacheHits, probe.CtrCacheEntries,
		discovery.CtrExecutions, discovery.CtrAssemblies, discovery.CtrLinks,
		discovery.CtrMutations, discovery.CtrCandidatesTried, discovery.CtrSolvedBySearch,
	} {
		out[name] = metric{Value: float64(ctr[name]), Unit: "count"}
	}
	out["probe.attempts_per_probe"] = metric{Value: ratio(float64(ctr[probe.CtrAttempts]), float64(ctr[probe.CtrProbes])), Unit: "ratio"}
	out["probe.execute_runs_per_execution"] = metric{Value: ratio(float64(ctr[probe.CtrQuorumRuns]), float64(ctr[discovery.CtrExecutions])), Unit: "ratio"}
	out["probe.cache_hit_frac"] = metric{Value: ratio(float64(ctr[probe.CtrCacheHits]), float64(ctr[probe.CtrCacheHits]+ctr[probe.CtrCacheMisses])), Unit: "fraction"}
	out["probe.cache_mb"] = metric{Value: float64(ctr[probe.CtrCacheBytes]) / 1e6, Unit: "MB"}
	out["faulty.injected"] = metric{Value: float64(injected), Unit: "count"}
	out["pool.tasks"] = metric{Value: float64(ctr[pool.CtrTasks]), Unit: "count"}
	out["pool.batches"] = metric{Value: float64(ctr[pool.CtrBatches]), Unit: "count"}
	out["extract.solve_s"] = metric{Value: solveS, Unit: "s"}
	out["extract.solve_allocs"] = metric{Value: solveAl, Unit: "count"}

	replays, err := replayProbeLayers()
	if err != nil {
		return nil, err
	}
	for k, v := range replays {
		out[k] = v
	}
	return out, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func addTally(a, b tally) tally {
	for o := op(0); o < numOps; o++ {
		a.calls[o] += b.calls[o]
		a.errs[o] += b.errs[o]
		a.ns[o] += b.ns[o]
	}
	return a
}

// replayExtract reruns reverse interpretation (graph matching plus the
// extractor's search) on d's data-flow graphs with the options the
// benchmark discovers with. It must reproduce d's solved set exactly; it
// returns the median time and allocation count of three replays.
func replayExtract(d *srcg.Discovery) (sec, allocs float64, problem string) {
	var times, als []float64
	for i := 0; i < 3; i++ {
		var solved []string
		c := measure(func() {
			var matches []*extract.MatchResult
			for _, s := range d.Samples {
				if g, ok := d.Graphs[s.Name]; ok {
					if m := extract.Match(g); m != nil {
						matches = append(matches, m)
					}
				}
			}
			x := extract.New(d.Model.WordBits, extract.DefaultWeights, extract.MBoosts(matches))
			solved = x.SolveAll(d.ExtractionGraphs()).Solved
		})
		if !slices.Equal(solved, d.Outcome.Solved) {
			problem = fmt.Sprintf("extract replay solved %d samples, discovery %d", len(solved), len(d.Outcome.Solved))
		}
		times = append(times, c.wall.Seconds())
		als = append(als, c.mallocs)
	}
	return summarize(times).med, summarize(als).med, problem
}

// perOp times n calls of fn in five batches and returns the median cost
// of one call in nanoseconds and heap allocations.
func perOp(n int, fn func()) (ns, allocs float64) {
	var nss, als []float64
	for b := 0; b < 5; b++ {
		c := measure(func() {
			for i := 0; i < n; i++ {
				fn()
			}
		})
		nss = append(nss, float64(c.wall.Nanoseconds())/float64(n))
		als = append(als, c.mallocs/float64(n))
	}
	return summarize(nss).med, summarize(als).med
}

// replayProgram is the program the execute replays run: small, like the
// samples mutation analysis executes thousands of times.
var replayProgram = srcg.ValidationSuite[0]

// replayProbeLayers measures one execute of replayProgram at three depths
// on every target — the raw simulator, a logical probe through
// probe.Prober without a cache (retry, quorum, tracer fork/join), and a
// logical probe answered by a probe.Cache — plus one obs
// Fork→Drain→Join cycle. Execute costs are means over the five targets.
func replayProbeLayers() (map[string]metric, error) {
	const n = 400
	var raw, rawAl, logical, logicalAl, cached, cachedAl float64
	archs := srcg.TargetNames()
	for _, arch := range archs {
		tc := srcg.NewTarget(arch)
		img, want, err := buildReplay(tc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", arch, err)
		}
		var bad error
		check := func(out string, err error) {
			if err == nil && out != want {
				err = fmt.Errorf("printed %q, want %q", out, want)
			}
			if err != nil && bad == nil {
				bad = err
			}
		}
		ns, al := perOp(n, func() { check(tc.Execute(img)) })
		raw, rawAl = raw+ns, rawAl+al

		p := probe.New(tc, probe.DefaultConfig())
		ns, al = perOp(n, func() { check(p.Execute(img)) })
		logical, logicalAl = logical+ns, logicalAl+al

		cfg := probe.DefaultConfig()
		cfg.Cache = probe.NewCache()
		cp := probe.New(tc, cfg)
		cimg, err := proberImage(cp, tc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", arch, err)
		}
		check(cp.Execute(cimg)) // fills the cache
		ns, al = perOp(n, func() { check(cp.Execute(cimg)) })
		cached, cachedAl = cached+ns, cachedAl+al
		if hits := cp.Tracer().Counter(probe.CtrCacheHits); hits < 5*n {
			bad = fmt.Errorf("cached execute replay hit the cache %d times, want %d", hits, 5*n)
		}
		if bad != nil {
			return nil, fmt.Errorf("%s execute replay: %w", arch, bad)
		}
	}
	k := float64(len(archs))
	tr := obs.New(nil)
	fj, fjAl := perOp(50*n, func() {
		f := tr.Fork()
		f.Count(probe.CtrAttempts, 1)
		f.ProbeEvent("execute", obs.OutcomeOK, 0)
		tr.Join(f.Drain())
	})
	return map[string]metric{
		"target.raw_execute_ns":        {Value: raw / k, Unit: "ns"},
		"target.raw_execute_allocs":    {Value: rawAl / k, Unit: "count"},
		"probe.logical_execute_ns":     {Value: logical / k, Unit: "ns"},
		"probe.logical_execute_allocs": {Value: logicalAl / k, Unit: "count"},
		"probe.cached_execute_ns":      {Value: cached / k, Unit: "ns"},
		"probe.cached_execute_allocs":  {Value: cachedAl / k, Unit: "count"},
		"obs.fork_join_ns":             {Value: fj, Unit: "ns"},
		"obs.fork_join_allocs":         {Value: fjAl, Unit: "count"},
	}, nil
}

// buildReplay compiles replayProgram with the target's own C compiler and
// returns its image and the reference interpreter's output for it.
func buildReplay(tc target.Toolchain) (*asm.Image, string, error) {
	unit, err := cc.CompileUnit(replayProgram.Source)
	if err != nil {
		return nil, "", err
	}
	want, err := ir.Eval(unit)
	if err != nil {
		return nil, "", err
	}
	text, err := tc.CompileC(replayProgram.Source)
	if err != nil {
		return nil, "", err
	}
	u, err := tc.Assemble(text)
	if err != nil {
		return nil, "", err
	}
	img, err := tc.Link([]*asm.Unit{u})
	return img, want, err
}

// proberImage builds replayProgram through p, so the cache knows the
// image's content and can key executes of it.
func proberImage(p *probe.Prober, tc target.Toolchain) (*asm.Image, error) {
	text, err := tc.CompileC(replayProgram.Source)
	if err != nil {
		return nil, err
	}
	u, err := p.Assemble(text)
	if err != nil {
		return nil, err
	}
	return p.Link([]*asm.Unit{u})
}
