// Package core orchestrates the architecture discovery unit end to end
// (paper Fig. 2): Generator → Lexer → Preprocessor → Extractor →
// Synthesizer, against a target reachable only through its toolchain.
package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
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
	// NoVariants has the Generator give every sample its base valuation
	// only (gen.Config.NoVariants) — an ablation knob (E20). One
	// valuation per sample is what the paper literally describes; without
	// the variants, conditional samples lose their dead branch to
	// redundancy elimination and value-symmetric misinterpretations slip
	// through.
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
	// Trace receives the run's telemetry: phase spans, per-probe events,
	// counters, histograms. Nil gets a private sink-less tracer on a
	// virtual clock, so phase attribution and counters always exist. The
	// tracer's clock is the pipeline's only time source — core code never
	// reads a wall clock, so a virtual-clock trace is byte-identical
	// across double runs.
	Trace *obs.Tracer
	// Workers fans independent probe work — each sample's pipeline from
	// mutation analysis to its checked data-flow graph, assembler-bisection
	// keys, validation programs — across a worker pool at the probe seam
	// (internal/pool). Results and traces are byte-identical at any width:
	// tasks run on forked probers with per-sample seeds and telemetry
	// joins in task order. 0 or 1 keeps every loop serial.
	Workers int
	// Cache, when non-nil, is a content-addressed probe memo shared
	// across runs in this process (sample text → assembly →
	// quorum-accepted run output): a repeat discovery replays memoized
	// probes instead of re-interrogating the toolchain, with traces
	// byte-identical to the cold run.
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
// pipeline re-run with a fresh seed before the sample is dropped.
const DefaultCheckRetries = 2

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
	// Cost snapshots the rig's cost counters (compiles, assemblies,
	// links, executions, mutations, search effort) when Discover returns.
	// Probes made later through Engine or Rig move Rig.Stats() but not
	// Cost.
	Cost discovery.Stats
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
	rig := &discovery.Rig{
		TC:      tc,
		P:       probe.New(tc, probe.Config{Trace: tr, Cache: opts.Cache}),
		Workers: opts.Workers,
	}
	rnd := rand.New(rand.NewSource(opts.Seed))

	// Phase 1 — syntax discovery: generate the sample set and bootstrap
	// the lexical model off the toolchain (the assembler-bisection span
	// nests inside, around immediate-range discovery).
	var samples []*discovery.Sample
	var model *discovery.Model
	err := tr.Phase(obs.PhaseLexerBootstrap, func() error {
		var err error
		samples, err = gen.Samples(gen.Config{Rand: rnd, Full: opts.Full, NoVariants: opts.NoVariants})
		if err != nil {
			return err
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

	// Phase 2 — mutation analysis. The machine facts come first, from
	// the regions the lexer extracted: the variables' slots and their
	// base registers (Model.Frame), the store sequence the writer search
	// plants, and the hardwired registers.
	// Then every sample's whole pipeline, from mutation analysis to its
	// checked data-flow graph, runs as one pool task.
	err = tr.Phase(obs.PhaseMutationAnalysis, func() error {
		slots, err := dfg.BindSlots(samples)
		if err != nil {
			return err
		}
		d.Slots = slots
		model.Frame = lexer.ClassifyText(model, slots.A).Regs
		p := preprocessor{model: model, slots: slots}
		var move *discovery.Sample
		work := make([]*discovery.Sample, 0, len(samples))
		for _, s := range samples {
			switch s.Name {
			case "int.move.b":
				move = s
			case "int.const.34117":
				p.storeSeq = s.Region
			}
			if s.Kind == discovery.PStress {
				continue // register-pressure sample: lexer-only
			}
			if s.Kind == discovery.PBinary && len(s.Vals) > 1 && !s.Sensitive() {
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
		// Every sample's baseline, all its valuations in one image, runs
		// first, in a batch of its own, under the full output quorum: two
		// runs per sample before any mutant. A lying machine that the
		// lexer bootstrap's few runs missed trips the noisy latch here,
		// and the probes below run after it, so no mutant on that machine
		// settles on a single run (DESIGN §7). Only the verdict crosses to
		// the analysis.
		baselines := pool.RunRig(rig, len(work), func(i int, sub *discovery.Rig) error {
			return newEngine(sub, nil).CheckBaseline(work[i])
		})
		// Hardwired-register detection (the paper's declared missing piece,
		// §7.2, implemented here as an extension).
		if move != nil {
			model.Hardwired = engine.DetectHardwired(move)
		}
		// Each task gets its own engine on a forked rig with a seed derived
		// from the sample name, not a position in a shared RNG stream, so
		// outcomes are identical at any worker count.
		results := pool.RunRig(rig, len(work), func(i int, sub *discovery.Rig) preprocessed {
			s := work[i]
			if baselines[i] != nil {
				return preprocessed{skip: baselines[i].Error()}
			}
			// Every attempt, retries included, takes the baseline the
			// batch above passed.
			run := func(seed int64) (*mutate.Analysis, *dfg.Graph, error) {
				eng := newEngine(sub, rand.New(rand.NewSource(seed)))
				eng.AssumeBaseline(s)
				return p.run(eng, s)
			}
			a, g, err := run(sampleSeed(opts.Seed, s.Name))
			if err != nil {
				return preprocessed{a: a, skip: err.Error()}
			}
			if !opts.Check {
				return preprocessed{a: a, g: g}
			}
			// Checker-gated retries: a graph the static verifier condemns is
			// evidence the machine lied to mutation analysis (noise that
			// slipped past the quorum, a flaked probe). Rather than shipping a
			// suspect graph — or aborting the run — the sample's pipeline is
			// re-run with a fresh seed; a sample still faulty after its budget
			// is dropped with a diagnostic.
			diags := check.VerifyGraph(model, a, g)
			for retry := 1; countErrors(diags) > 0 && retry <= DefaultCheckRetries; retry++ {
				sub.Trace().Count(CtrCheckRetries, 1)
				a2, g2, err := run(retrySeed(opts.Seed, s.Name, retry))
				if err != nil {
					continue
				}
				if d2 := check.VerifyGraph(model, a2, g2); countErrors(d2) < countErrors(diags) {
					a, g, diags = a2, g2, d2
				}
			}
			if countErrors(diags) > 0 {
				reason := firstError(diags).String()
				sub.Trace().Count(CtrSamplesDropped, 1)
				sub.Trace().DropEvent(s.Name, reason)
				return preprocessed{dropped: true, skip: fmt.Sprintf("dropped by checker gate after %d retries: %s",
					DefaultCheckRetries, reason)}
			}
			return preprocessed{a: a, g: g}
		})
		for i, s := range work {
			r := results[i]
			if r.a != nil {
				d.Analyses[s.Name] = r.a
			}
			if r.g != nil {
				d.Graphs[s.Name] = r.g
			}
			if r.skip != "" {
				d.Skipped[s.Name] = r.skip
			}
			if r.dropped {
				d.Dropped[s.Name] = r.skip
			}
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

	// The resilience and cost fields are snapshots of the tracer's
	// counters — one source of truth shared with the trace stream and
	// Report().
	d.CheckRetried = int(tr.Counter(CtrCheckRetries))
	d.ProbeStats = rig.ProbeStats()
	d.Cost = rig.Stats()
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

// firstError returns the first Error-severity diagnostic, the one a
// dropped sample's reason names; diags holds at least one.
func firstError(diags []check.Diagnostic) check.Diagnostic {
	i := slices.IndexFunc(diags, func(dg check.Diagnostic) bool { return dg.Severity == check.Error })
	return diags[i]
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

// preprocessor runs one sample's §4 pipeline against the machine facts
// learned before the pool: the variables' slots and the store sequence
// the output-writer search plants (the int.const.34117 region).
type preprocessor struct {
	model    *discovery.Model
	slots    dfg.Slots
	storeSeq []discovery.Instr
}

// preprocessed is one sample's outcome: its analysis and graph, or the
// reason it was skipped. A sample whose graph failed to build keeps its
// analysis; a dropped one keeps nothing.
type preprocessed struct {
	a       *mutate.Analysis
	g       *dfg.Graph
	skip    string
	dropped bool
}

// run analyzes s on eng, locates its output-cell writer (so only genuine
// stores get memory-output ports) and builds its data-flow graph. A
// sample with no writer returns no analysis: its payload is an identity
// (a = a & a) whose store mutation analysis legitimately eliminated. A
// graph that fails to build returns the analysis with the error.
func (p preprocessor) run(eng *mutate.Engine, s *discovery.Sample) (*mutate.Analysis, *dfg.Graph, error) {
	a, err := eng.Analyze(s)
	if err != nil {
		return nil, nil, err
	}
	eng.FindMemWriter(a, p.storeSeq, 34117)
	if a.AWriter < 0 {
		return nil, nil, errors.New("payload has no observable effect")
	}
	g, err := dfg.Build(p.model, a, p.slots)
	return a, g, err
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
	fmt.Fprintf(&sb, "cost: %s\n", d.Cost)
	fmt.Fprintf(&sb, "probe: %s\n", d.ProbeStats)
	sb.WriteString("mutants:")
	for _, an := range mutate.AnalysisNames {
		fmt.Fprintf(&sb, " %s=%d", an, d.Trace.Counter(mutate.RunsCounter(an)))
	}
	sb.WriteString("\njoint attempts/fallbacks:")
	for _, an := range mutate.GroupedAnalyses {
		fmt.Fprintf(&sb, " %s=%d/%d", an, d.Trace.Counter(mutate.JointCounter(an)), d.Trace.Counter(mutate.JointFallbackCounter(an)))
	}
	sb.WriteString("\n")
	// Cache occupancy is a view over the unsealed gauges Discover set; a
	// run without a shared cache never wrote them and prints nothing.
	if n := d.Trace.Counter(probe.CtrCacheEntries); n > 0 {
		fmt.Fprintf(&sb, "cache: entries=%d bytes=%d\n",
			n, d.Trace.Counter(probe.CtrCacheBytes))
	}
	// Resilience numbers come from the tracer's counters — the same
	// source the trace stream reports.
	cr, sd := d.Trace.Counter(CtrCheckRetries), d.Trace.Counter(CtrSamplesDropped)
	if cr > 0 || sd > 0 {
		fmt.Fprintf(&sb, "resilience: check_retries=%d samples_dropped=%d\n", cr, sd)
	}
	if t := obs.FormatPhaseTable(d.Trace.PhaseSummary()); t != "" {
		sb.WriteString(t)
	}
	return sb.String()
}
