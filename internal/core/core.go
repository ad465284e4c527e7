// Package core orchestrates the architecture discovery unit end to end
// (paper Fig. 2): Generator → Lexer → Preprocessor → Extractor →
// Synthesizer, against a target reachable only through its toolchain.
package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"srcg/internal/check"
	"srcg/internal/check/mdverify"
	"srcg/internal/dfg"
	"srcg/internal/discovery"
	"srcg/internal/extract"
	"srcg/internal/gen"
	"srcg/internal/lexer"
	"srcg/internal/mutate"
	"srcg/internal/obs"
	"srcg/internal/pool"
	"srcg/internal/probe"
	"srcg/internal/synth"
	"srcg/internal/target"
)

// Options configures a discovery run.
type Options struct {
	Seed int64
	Full bool // use the complete §3 shape set
	// SignedShifts enables the ash-primitive extension (beyond the
	// paper): the reverse interpreter may use a signed-count shift,
	// resolving the VAX ashl limitation of §5.2.3.
	SignedShifts bool
	// NoVariants strips the extra hidden-value valuations from every
	// sample — an ablation knob (E20). Single-valuation samples are what
	// the paper literally describes; without the variants, conditional
	// samples lose their dead branch to redundancy elimination and
	// value-symmetric misinterpretations slip through.
	NoVariants bool
	// Check runs the static verification layer (internal/check) over
	// every data-flow graph and the synthesized spec, attaching a
	// CheckReport to the Discovery.
	Check bool
	// CheckMD additionally runs the semantic machine-description
	// analyzer (internal/check/mdverify, SA020–SA025) over the
	// synthesized spec: coverage closure, rule shadowing, symbolic
	// template verification, structural invariants. Implies Check.
	CheckMD bool
	// QuorumN caps the executions spent seeking an output quorum per run
	// (0 = probe.DefaultQuorumN; 1 trusts single runs — no re-probing).
	QuorumN int
	// Trace receives the run's telemetry: phase spans, per-probe events,
	// counters, histograms. Nil gets a private sink-less tracer on a
	// virtual clock, so phase attribution and counters always exist. The
	// tracer's clock is the pipeline's only time source — core code never
	// reads a wall clock, so a virtual-clock trace is byte-identical
	// across double runs.
	Trace *obs.Tracer
	// Workers fans independent probe work — per-sample mutation analysis,
	// assembler-bisection keys, validation programs — across a worker
	// pool at the probe seam (internal/pool). Results and traces are
	// byte-identical at any width: tasks run on forked probers with
	// per-sample seeds and telemetry joins in task order. 0 or 1 keeps
	// every loop serial.
	Workers int
	// Cache, when non-nil, is a content-addressed probe memo shared
	// across runs in this process (sample text → assembly →
	// quorum-accepted run output): a repeat discovery replays memoized
	// probes instead of re-interrogating the toolchain, with traces
	// byte-identical to the cold run. Share one Cache only between runs
	// with the same QuorumN policy.
	Cache *probe.Cache
}

// Counter names the core pipeline maintains on its tracer. The
// resilience lines in Report() are views over these, the same way
// probe.Stats views the probe.* counters.
const (
	CtrCheckRetries   = "core.check_retries"
	CtrSamplesDropped = "core.samples_dropped"
)

// DefaultCheckRetries is the checker-gated retry budget: how many times a
// sample whose data-flow graph draws an Error-severity diagnostic has its
// mutation analysis re-run with a fresh seed before the sample is dropped.
const DefaultCheckRetries = 2

// constantExpect reports whether every valuation of s expects the same
// output — a degenerate sample that cannot pin value-dependent semantics.
func constantExpect(s *discovery.Sample) bool {
	vals := s.Valuations()
	if len(vals) < 2 {
		return false // a single valuation carries no variance information
	}
	for _, v := range vals[1:] {
		if v.Expect != vals[0].Expect {
			return false
		}
	}
	return true
}

// Discovery is the complete result of analyzing one target.
type Discovery struct {
	Rig      *discovery.Rig
	Model    *discovery.Model
	Samples  []*discovery.Sample
	Analyses map[string]*mutate.Analysis
	Slots    dfg.Slots
	Graphs   map[string]*dfg.Graph
	Matches  []*extract.MatchResult
	Ext      *extract.Extractor
	Outcome  extract.Outcome
	Engine   *mutate.Engine
	Spec     *synth.Spec
	SpecErr  error // non-fatal synthesis failure ("almost correct" specs)
	// Attrib is the per-signature attribution table aggregated from the
	// surviving analyses — what the machine-description analyzer
	// verifies templates against, retained so a served or cached spec
	// can be re-verified without re-running discovery (MDVerify).
	Attrib *dfg.AttribTable
	// Skipped samples (preprocessing failures), with reasons.
	Skipped map[string]string
	// CheckReport holds the static verifier's findings (Options.Check).
	CheckReport *check.Report
	// ProbeStats snapshots the probe layer's resilience counters: probes
	// issued, transient faults retried, quorum re-executions, conflicts
	// outvoted (see internal/probe).
	ProbeStats probe.Stats
	// CheckRetried counts mutation analyses re-run under the checker gate.
	CheckRetried int
	// Dropped lists samples abandoned after exhausting their checker-gated
	// retry budget, with the diagnostic that condemned them. Dropped
	// samples also appear in Skipped: discovery degrades, never aborts.
	Dropped map[string]string
	// Trace is the run's telemetry tracer (Options.Trace, or the private
	// one Discover created). Report() renders its phase attribution;
	// Validate() continues on it.
	Trace *obs.Tracer
}

// Discover runs the full pipeline up to semantic extraction.
func Discover(tc target.Toolchain, opts Options) (*Discovery, error) {
	if opts.CheckMD {
		opts.Check = true // the MD analyzer extends the checker layer
	}
	tr := opts.Trace
	if tr == nil {
		tr = obs.New(nil)
	}
	probeCfg := probe.DefaultConfig()
	probeCfg.QuorumN = opts.QuorumN
	probeCfg.Trace = tr
	probeCfg.Cache = opts.Cache
	rig := discovery.NewRigConfig(tc, probeCfg)
	rig.Workers = opts.Workers
	rnd := rand.New(rand.NewSource(opts.Seed))

	// Phase 1 — syntax discovery: generate the sample set and bootstrap
	// the lexical model off the toolchain (the assembler-bisection span
	// nests inside, around immediate-range discovery).
	var samples []*discovery.Sample
	var model *discovery.Model
	err := tr.Phase(obs.PhaseLexerBootstrap, func() error {
		var err error
		samples, err = gen.Samples(gen.Config{Rand: rnd, Full: opts.Full})
		if err != nil {
			return err
		}
		if opts.NoVariants {
			for _, s := range samples {
				s.Variants = nil
			}
		}
		model, err = lexer.Bootstrap(rig, samples)
		return err
	})
	if err != nil {
		return nil, err
	}
	d := &Discovery{
		Rig:      rig,
		Model:    model,
		Samples:  samples,
		Analyses: map[string]*mutate.Analysis{},
		Graphs:   map[string]*dfg.Graph{},
		Skipped:  map[string]string{},
		Dropped:  map[string]string{},
		Trace:    tr,
	}

	engine := mutate.New(rig, model, rand.New(rand.NewSource(opts.Seed+1)))
	d.Engine = engine

	// Phase 2 — mutation analysis: per-sample analyses, slot binding,
	// memory-writer and hardwired-register detection, and the data-flow
	// graphs behind the checker gate.
	err = tr.Phase(obs.PhaseMutationAnalysis, func() error {
		// Per-sample analyses are independent of each other, so they fan
		// out over the worker pool: each task gets its own engine on a
		// forked rig with a seed derived from the sample name — not a
		// position in a shared RNG stream — so outcomes are identical at
		// any worker count.
		work := make([]*discovery.Sample, 0, len(samples))
		for _, s := range samples {
			if s.Kind == discovery.PStress {
				continue // register-pressure sample: lexer-only
			}
			if s.Kind == discovery.PBinary && constantExpect(s) {
				// A payload whose expected output never varies (b>>b is 0 for
				// every representable b; a-a, a^a, a%a likewise) cannot
				// distinguish value-dependent interpretations, and mutation
				// analysis on it degenerates: with the result insensitive to
				// the inputs, the operand loads test as "redundant" and the
				// region collapses. The full §3 shape set contains a handful
				// of these; they carry no semantic signal and are skipped.
				d.Skipped[s.Name] = "expected output is valuation-invariant"
				continue
			}
			work = append(work, s)
		}
		// The engines link the same initializer and helper units, so each
		// distinct one is compiled once, serially and in sample order,
		// and shared read-only by every fork.
		engine.Units = mutate.CompileUnits(rig, work)
		newEngine := func(sub *discovery.Rig, rnd *rand.Rand) *mutate.Engine {
			e := mutate.New(sub, model, rnd)
			e.Units = engine.Units
			return e
		}
		type analyzed struct {
			a   *mutate.Analysis
			err error
		}
		// Every sample's baseline, all its valuations in one image, runs
		// first, in a batch of its own, under the full output quorum: two
		// runs per sample before any mutant. A lying machine that the
		// lexer bootstrap's few runs missed trips the noisy latch here,
		// and the analysis forks below snapshot it, so no mutant on that
		// machine settles on a single run (DESIGN §7). Only the verdict
		// crosses to the analysis. QuorumN=1 forms no quorum, so there is
		// no latch to trip and no batch: each analysis checks its own
		// baseline.
		var baselines []error
		if opts.QuorumN != 1 {
			baselines = pool.RunRig(rig, len(work), func(i int, sub *discovery.Rig) error {
				return newEngine(sub, nil).CheckBaseline(work[i])
			})
		}
		results := pool.RunRig(rig, len(work), func(i int, sub *discovery.Rig) analyzed {
			s := work[i]
			eng := newEngine(sub, rand.New(rand.NewSource(sampleSeed(opts.Seed, s.Name))))
			if baselines != nil {
				if baselines[i] != nil {
					return analyzed{err: baselines[i]}
				}
				eng.AssumeBaseline(s)
			}
			a, err := eng.Analyze(s)
			return analyzed{a, err}
		})
		for i, s := range work {
			if results[i].err != nil {
				d.Skipped[s.Name] = results[i].err.Error()
				continue
			}
			d.Analyses[s.Name] = results[i].a
		}

		slots, err := d.findSlots()
		if err != nil {
			return err
		}
		d.Slots = slots

		// Locate each sample's output-cell writer (needed so only genuine
		// stores get memory-output ports in the data-flow graphs).
		if constA, ok := d.Analyses["int.const.34117"]; ok {
			// Walk the sample list, not the map: FindMemWriter probes the
			// toolchain, and the probe sequence must be identical run to run.
			for _, s := range samples {
				if a, ok := d.Analyses[s.Name]; ok {
					engine.FindMemWriter(a, constA.Region, 34117)
				}
			}
		}

		// Hardwired-register detection (the paper's declared missing piece,
		// §7.2, implemented here as an extension).
		if a, ok := d.Analyses["int.move.b"]; ok {
			model.Hardwired = engine.DetectHardwired(a)
		}

		for _, s := range samples {
			a, ok := d.Analyses[s.Name]
			if !ok {
				continue
			}
			if a.AWriter < 0 {
				// Nothing in the region observably writes the output cell:
				// the payload is an identity (a = a & a) whose store mutation
				// analysis legitimately eliminated. No semantic signal.
				d.Skipped[s.Name] = "payload has no observable effect"
				delete(d.Analyses, s.Name)
				continue
			}
			g, err := dfg.Build(model, a, slots)
			if err != nil {
				d.Skipped[s.Name] = err.Error()
				continue
			}
			// Checker-gated retries: a graph the static verifier condemns is
			// evidence the machine lied to mutation analysis (noise that
			// slipped past the quorum, a flaked probe). Rather than shipping a
			// suspect graph — or aborting the run — the sample's analysis is
			// re-run with a fresh seed; a sample still faulty after its budget
			// is dropped with a diagnostic.
			if opts.Check {
				diags := check.VerifyGraph(model, a, g)
				for retry := 1; countErrors(diags) > 0 && retry <= DefaultCheckRetries; retry++ {
					tr.Count(CtrCheckRetries, 1)
					retryEngine := newEngine(rig, rand.New(rand.NewSource(retrySeed(opts.Seed, s.Name, retry))))
					a2, err := retryEngine.Analyze(s)
					if err != nil {
						continue
					}
					if constA, ok := d.Analyses["int.const.34117"]; ok {
						retryEngine.FindMemWriter(a2, constA.Region, 34117)
					}
					if a2.AWriter < 0 {
						continue
					}
					g2, err := dfg.Build(model, a2, slots)
					if err != nil {
						continue
					}
					if d2 := check.VerifyGraph(model, a2, g2); countErrors(d2) < countErrors(diags) {
						a, g, diags = a2, g2, d2
						d.Analyses[s.Name] = a2
					}
				}
				if countErrors(diags) > 0 {
					reason := fmt.Sprintf("dropped by checker gate after %d retries: %s",
						DefaultCheckRetries, diags[0].String())
					d.Dropped[s.Name] = reason
					d.Skipped[s.Name] = reason
					delete(d.Analyses, s.Name)
					tr.Count(CtrSamplesDropped, 1)
					tr.DropEvent(s.Name, diags[0].String())
					continue
				}
			}
			d.Graphs[s.Name] = g
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The units held 3.3 of the 3.9 MB a sparc discovery retained; the
	// Synthesizer's few probes compile theirs again rather than keep them
	// all live through reverse interpretation, the allocation peak.
	engine.DropUnits()

	// Phase 3 — reverse interpretation: graph matching feeds the M
	// component of the likelihood, then the extractor searches for each
	// sample's semantics.
	_ = tr.Phase(obs.PhaseReverseInterp, func() error {
		for _, s := range samples {
			if g, ok := d.Graphs[s.Name]; ok {
				if m := extract.Match(g); m != nil {
					d.Matches = append(d.Matches, m)
				}
			}
		}

		d.Ext = extract.New(model.WordBits, extract.DefaultWeights, extract.MBoosts(d.Matches))
		d.Ext.Tr = tr
		d.Ext.SignedShifts = opts.SignedShifts
		d.Outcome = d.Ext.SolveAll(d.ExtractionGraphs())
		return nil
	})

	// Phase 4 — machine-description synthesis (§6) plus the final static
	// verification report.
	_ = tr.Phase(obs.PhaseSynthesis, func() error {
		byName := map[string]*discovery.Sample{}
		for _, s := range samples {
			byName[s.Name] = s
		}
		solved := map[string]bool{}
		for _, n := range d.Outcome.Solved {
			solved[n] = true
		}
		spec, err := synth.Synthesize(synth.Input{
			Rig:      rig,
			Model:    model,
			Engine:   engine,
			Samples:  byName,
			Analyses: d.Analyses,
			Slots:    d.Slots,
			Solved:   solved,
		})
		if err != nil {
			d.SpecErr = err
		}
		d.Spec = spec

		if opts.Check {
			rep := &check.Report{}
			for _, s := range samples {
				g, ok := d.Graphs[s.Name]
				if !ok {
					continue
				}
				rep.Add(check.VerifyGraph(model, d.Analyses[s.Name], g)...)
			}
			if spec != nil {
				rep.Add(check.LintSpec(model, spec)...)
				rep.Add(check.LintHiddenPairs(d.Analyses, spec)...)
			}
			if opts.CheckMD {
				d.Attrib = dfg.BuildAttrib(model, d.Analyses, d.Slots)
				rep.Add(d.MDVerify()...)
			}
			for _, name := range sortedKeys(d.Dropped) {
				rep.Add(check.Diagnostic{Code: check.CodeSampleDropped, Severity: check.Warning,
					Sample: name, Step: -1, Message: d.Dropped[name]})
			}
			d.CheckReport = rep
		}
		return nil
	})

	// The resilience fields are views over the tracer's counters — one
	// source of truth shared with the trace stream and Report().
	d.CheckRetried = int(tr.Counter(CtrCheckRetries))
	d.ProbeStats = rig.ProbeStats()
	if opts.Cache != nil {
		// Occupancy gauges for the shared probe memo: how many logical
		// probes this run left memoized and their approximate resident
		// size. Unsealed (probe.* cache names), so warm and cold traces
		// stay byte-identical.
		tr.Gauge(probe.CtrCacheEntries, int64(opts.Cache.Len()))
		tr.Gauge(probe.CtrCacheBytes, opts.Cache.Bytes())
	}
	return d, nil
}

// MDVerify runs the semantic machine-description analyzer (SA020–SA025)
// over the discovery's synthesized spec: coverage closure, rule
// shadowing, symbolic template verification against the attribution
// table, and structural invariants. It works from retained state only —
// no probes — so a served or cached spec can be re-verified at any
// point. The attribution table is built lazily from the surviving
// analyses if Discover did not populate it.
func (d *Discovery) MDVerify() []check.Diagnostic {
	if d.Model == nil || d.Spec == nil {
		return nil
	}
	if d.Attrib == nil && len(d.Analyses) > 0 {
		d.Attrib = dfg.BuildAttrib(d.Model, d.Analyses, d.Slots)
	}
	return mdverify.Verify(d.Model, d.Spec, d.Attrib)
}

// countErrors counts Error-severity diagnostics.
func countErrors(diags []check.Diagnostic) int {
	n := 0
	for _, dg := range diags {
		if dg.Severity == check.Error {
			n++
		}
	}
	return n
}

// retrySeed derives the fresh, deterministic seed for a checker-gated
// re-analysis of one sample.
func retrySeed(seed int64, name string, retry int) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed + 1009*int64(retry) + int64(h.Sum64()&0xffff)
}

// sampleSeed derives one sample's mutation-analysis seed from the run
// seed and the sample name alone — no position in a shared RNG stream —
// so a pooled analysis draws the same values at any worker count.
func sampleSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed + 1 + int64(h.Sum64()&0xffffff)
}

// sortedKeys returns m's keys in deterministic order.
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ExtractionGraphs selects the graphs the Extractor works on: every
// analyzed sample except calls to arbitrary procedures (P, P2), which have
// no primitive semantics and exist for convention discovery.
func (d *Discovery) ExtractionGraphs() []*dfg.Graph {
	var graphs []*dfg.Graph
	for _, s := range d.Samples {
		g, ok := d.Graphs[s.Name]
		if !ok {
			continue
		}
		if s.Kind == discovery.PCall && !isPrimitiveCall(g) {
			continue
		}
		graphs = append(graphs, g)
	}
	return graphs
}

// isPrimitiveCall reports whether a call sample's target is a millicode
// arithmetic routine (SPARC .mul/.div/.rem) rather than a user procedure.
func isPrimitiveCall(g *dfg.Graph) bool {
	for _, st := range g.Steps {
		if st.Target != "" && strings.HasPrefix(st.Target, ".") {
			return true
		}
	}
	return false
}

// findSlots binds the sample variables a, b, c to their memory addresses
// using the single-variable samples: the constant sample's unique memory
// operand is a's slot, the move sample adds b's, and a binary sample adds
// c's (§5.2.1's address-binding trick).
func (d *Discovery) findSlots() (dfg.Slots, error) {
	memOps := func(name string) []string {
		a, ok := d.Analyses[name]
		if !ok {
			return nil
		}
		var out []string
		seen := map[string]bool{}
		for i, ins := range a.Region {
			if a.Filler[i] {
				continue
			}
			for _, arg := range ins.Args {
				if arg.Kind == discovery.KMem || arg.Kind == discovery.KSym {
					t := dfg.NormalizeAddr(arg.Text)
					if !seen[t] {
						seen[t] = true
						out = append(out, t)
					}
				}
			}
		}
		return out
	}
	var slots dfg.Slots
	for _, s := range d.Samples {
		if s.Kind == discovery.PConst {
			if ops := memOps(s.Name); len(ops) == 1 {
				slots.A = ops[0]
				break
			}
		}
	}
	if slots.A == "" {
		return slots, fmt.Errorf("core: could not bind variable a to a memory cell")
	}
	for _, t := range memOps("int.move.b") {
		if t != slots.A {
			slots.B = t
		}
	}
	if slots.B == "" {
		return slots, fmt.Errorf("core: could not bind variable b to a memory cell")
	}
	for _, t := range memOps("int.add.b_c") {
		if t != slots.A && t != slots.B {
			slots.C = t
		}
	}
	if slots.C == "" {
		return slots, fmt.Errorf("core: could not bind variable c to a memory cell")
	}
	return slots, nil
}

// Report renders a human-readable summary of the run.
func (d *Discovery) Report() string {
	var sb strings.Builder
	sb.WriteString(lexer.DescribeModel(d.Model))
	fmt.Fprintf(&sb, "slots:          a=%s b=%s c=%s\n", d.Slots.A, d.Slots.B, d.Slots.C)
	fmt.Fprintf(&sb, "solved %d samples, failed %d, skipped %d\n",
		len(d.Outcome.Solved), len(d.Outcome.Failed), len(d.Skipped))
	sigs := make([]string, 0, len(d.Ext.Sems))
	for sig := range d.Ext.Sems {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		fmt.Fprintf(&sb, "  %-28s %s\n", sig, d.Ext.Sems[sig])
	}
	fmt.Fprintf(&sb, "cost: %s\n", d.Rig.Stats())
	fmt.Fprintf(&sb, "probe: %s\n", d.ProbeStats)
	sb.WriteString("mutants:")
	for _, an := range mutate.AnalysisNames {
		fmt.Fprintf(&sb, " %s=%d", an, d.Trace.Counter(mutate.RunsCounter(an)))
	}
	sb.WriteString("\njoint fallbacks:")
	for _, an := range mutate.GroupedAnalyses {
		fmt.Fprintf(&sb, " %s=%d", an, d.Trace.Counter(mutate.JointFallbackCounter(an)))
	}
	sb.WriteString("\n")
	// Cache occupancy is a view over the unsealed gauges Discover set; a
	// run without a shared cache never wrote them and prints nothing.
	if n := d.Trace.Counter(probe.CtrCacheEntries); n > 0 {
		fmt.Fprintf(&sb, "cache: entries=%d bytes=%d\n",
			n, d.Trace.Counter(probe.CtrCacheBytes))
	}
	// Resilience numbers come from the tracer's counters — the same
	// source the trace stream reports — falling back to the snapshot
	// fields for hand-built Discovery values without a tracer.
	cr, sd := d.Trace.Counter(CtrCheckRetries), d.Trace.Counter(CtrSamplesDropped)
	if d.Trace == nil {
		cr, sd = int64(d.CheckRetried), int64(len(d.Dropped))
	}
	if cr > 0 || sd > 0 {
		fmt.Fprintf(&sb, "resilience: check_retries=%d samples_dropped=%d\n", cr, sd)
	}
	if t := obs.FormatPhaseTable(d.Trace.PhaseSummary()); t != "" {
		sb.WriteString(t)
	}
	return sb.String()
}
