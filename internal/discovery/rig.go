package discovery

import (
	"srcg/internal/asm"
	"srcg/internal/obs"
	"srcg/internal/probe"
	"srcg/internal/target"
)

// Counter names for the toolchain-interaction cost story (the paper's
// §7.2 accounting). Rig.Stats() is a view over exactly these; they live
// on the tracer — one atomic, race-free home shared with the trace
// stream — instead of plain struct fields, so two workers sharing a Rig
// can never lose an increment and Report() can never drift.
const (
	CtrSamples    = "discovery.samples"
	CtrCompiles   = "discovery.compiles"
	CtrAssemblies = "discovery.assemblies"
	CtrLinks      = "discovery.links"
	CtrExecutions = "discovery.executions"
	CtrMutations  = "discovery.mutations"
	// Reverse-interpreter search effort (counted by internal/extract).
	CtrCandidatesTried = "discovery.candidates_tried"
	CtrSolvedByMatch   = "discovery.solved_by_match"
	CtrSolvedBySearch  = "discovery.solved_by_search"
	CtrTimeouts        = "discovery.timeouts"
)

// Rig wraps a target toolchain with interaction counting and the resilient
// probe layer: every toolchain call the discovery unit makes flows through
// one probe.Prober that retries transient faults and re-executes noisy
// runs under an output quorum (see internal/probe). The objects returned
// by Assemble are treated as opaque handles — discovery-side code never
// inspects them, preserving the black-box discipline.
type Rig struct {
	TC target.Toolchain
	P  *probe.Prober
	// Workers is the fan-out width pooled probe work (pool.RunRig) uses
	// with this rig; 0 or 1 keeps every loop serial. Results and traces
	// are byte-identical at any width.
	Workers int
}

// NewRig wraps a toolchain in a prober with a private tracer and no cache.
func NewRig(tc target.Toolchain) *Rig { return &Rig{TC: tc, P: probe.New(tc, probe.Config{})} }

// Stats snapshots the toolchain-interaction counters from the tracer.
// Like probe.Stats it is a read-only view, not an independent tally:
// Rigs sharing one tracer share the counts.
func (r *Rig) Stats() Stats {
	tr := r.Trace()
	return Stats{
		Samples:         int(tr.Counter(CtrSamples)),
		Compiles:        int(tr.Counter(CtrCompiles)),
		Assemblies:      int(tr.Counter(CtrAssemblies)),
		Links:           int(tr.Counter(CtrLinks)),
		Executions:      int(tr.Counter(CtrExecutions)),
		Mutations:       int(tr.Counter(CtrMutations)),
		CandidatesTried: int(tr.Counter(CtrCandidatesTried)),
		SolvedByMatch:   int(tr.Counter(CtrSolvedByMatch)),
		SolvedBySearch:  int(tr.Counter(CtrSolvedBySearch)),
		Timeouts:        int(tr.Counter(CtrTimeouts)),
	}
}

// ProbeStats snapshots the probe layer's resilience counters.
func (r *Rig) ProbeStats() probe.Stats { return r.P.Stats() }

// Trace returns the telemetry tracer the probe layer reports to; every
// pipeline stage above the Rig hangs its spans and counters off the same
// tracer, so one trace covers the whole run.
func (r *Rig) Trace() *obs.Tracer { return r.P.Tracer() }

// CompileAsm runs the target C compiler on one translation unit.
func (r *Rig) CompileAsm(src string) (string, error) {
	r.Trace().Count(CtrCompiles, 1)
	return r.P.CompileC(src)
}

// Assemble runs the target assembler.
func (r *Rig) Assemble(text string) (*asm.Unit, error) {
	r.Trace().Count(CtrAssemblies, 1)
	return r.P.Assemble(text)
}

// Accepts probes the assembler for acceptance of a code fragment.
func (r *Rig) Accepts(text string) bool {
	_, err := r.Assemble(text)
	return err == nil
}

// LinkRun links pre-assembled units and executes the result, returning the
// program's stdout. An execution fault is an error (mutation analyses treat
// faults as "behaved differently"). An empty want runs the full output
// quorum (probe.Prober.Execute). Any other want is an exact reference
// output the caller compares against — the ir.Eval output, or a constant
// the probe planted itself, never an output observed on the machine: on a
// machine never caught lying, one run printing want settles the execution
// (probe.Prober.ExecuteExpect).
func (r *Rig) LinkRun(want string, units ...*asm.Unit) (string, error) {
	r.Trace().Count(CtrLinks, 1)
	img, err := r.P.Link(units)
	if err != nil {
		return "", err
	}
	r.Trace().Count(CtrExecutions, 1)
	if want == "" {
		return r.P.Execute(img)
	}
	return r.P.ExecuteExpect(img, want)
}

// BuildRun compiles, assembles, links, and runs C translation units.
func (r *Rig) BuildRun(sources ...string) (string, error) {
	units := make([]*asm.Unit, 0, len(sources))
	for _, src := range sources {
		text, err := r.CompileAsm(src)
		if err != nil {
			return "", err
		}
		u, err := r.Assemble(text)
		if err != nil {
			return "", err
		}
		units = append(units, u)
	}
	return r.LinkRun("", units...)
}
