// Package check is the static verification layer: it re-derives dataflow
// facts for every preprocessed sample with classic forward
// reaching-definitions and backward liveness passes, cross-validates the
// mutation-derived data-flow graphs of internal/dfg against that fixpoint,
// and lints the synthesized machine description of internal/synth against
// the lexer's probed syntax model. The whole pipeline otherwise rests on
// dynamic evidence (§4 mutation analysis, §5 reverse interpretation); this
// package is the independent second opinion that catches silently
// corrupted graphs and contradictory specifications.
//
// The checker honors the black-box discipline of internal/discovery: it
// sees only the discovered syntax model, the preprocessed instruction
// text, and the mutation attributions — never a simulator's ground truth.
package check

import (
	"fmt"
	"sort"
	"strings"
)

// Severity ranks a diagnostic.
type Severity int

// Severities.
const (
	Warning Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic codes. The codes are stable: tools and tests match on them.
const (
	// CodeDanglingProducer: an input port's Producer names a step that is
	// not earlier, does not define the register, or whose definition
	// cannot reach the use along any path (guards §4.6 DFG wiring).
	CodeDanglingProducer = "SA001"
	// CodeDeadRegisterUse: a register input port with no reaching
	// definition and no live-in evidence — the value read is statically
	// undefined (guards §4.4/§4.5 def-use attribution).
	CodeDeadRegisterUse = "SA002"
	// CodeHiddenChannel: a hidden-channel endpoint (condition codes,
	// hi/lo) without its partner: a writer never read, or a reader whose
	// producer is missing or later (guards §7.1 hidden communication).
	CodeHiddenChannel = "SA003"
	// CodeLabelResolution: a Graph.Labels entry does not resolve to a
	// step index inside the region (guards §4.6 control-flow wiring).
	CodeLabelResolution = "SA004"
	// CodeAttributionMismatch: static and mutation-derived dataflow
	// disagree — a port claims an external source although a definition
	// statically reaches it, or the analysis steps cannot be aligned
	// with the graph steps.
	CodeAttributionMismatch = "SA005"
	// CodeDeadDefinition: a step defines a register that no reachable
	// later step reads — the value is computed and dropped.
	CodeDeadDefinition = "SA006"
	// CodeDuplicateTemplate: two different intermediate-code operations
	// synthesized byte-identical instruction sequences — the machine
	// description is contradictory (guards §6 synthesis).
	CodeDuplicateTemplate = "SA010"
	// CodeImmediateRange: a template emits an immediate outside the
	// range the lexer probed for that operand (guards §3.1 syntax
	// discovery against §6 synthesis).
	CodeImmediateRange = "SA011"
	// CodeRegisterClassOverlap: the scratch registers of the operation
	// templates overlap the frame-base register class — the spec's
	// register classes are incoherent.
	CodeRegisterClassOverlap = "SA012"
	// CodeUnwitnessedMode: a template operand uses an addressing-mode
	// shape never observed in any sample.
	CodeUnwitnessedMode = "SA013"
	// CodeUnpairedHiddenConsumer: a Branches/Calls template emits an
	// instruction the samples observed consuming a hidden value (§7.1)
	// without a preceding line emitting one of its observed producers —
	// the generated code would branch or call on garbage.
	CodeUnpairedHiddenConsumer = "SA014"
	// CodeSampleDropped: graceful degradation — a sample whose data-flow
	// graph stayed faulty through its checker-gated retry budget was
	// dropped from the run instead of aborting it.
	CodeSampleDropped = "SA015"
	// CodeUncoveredDemand: the coverage-closure fixpoint found an IR
	// operator × operand-valuation combination the front end can emit
	// that no finite rule chain of the machine description covers.
	// Declared gaps (Spec.Gaps, the paper's "almost correct" specs)
	// demote the finding to a warning; an undeclared hole is an error.
	CodeUncoveredDemand = "SA020"
	// CodeDeadRule: a rule no front-end demand can ever reach — an
	// operation template keyed outside the emitter's operator set, a
	// call template with no matching callee convention (or vice versa),
	// or a chain rule over an unwitnessed addressing mode.
	CodeDeadRule = "SA021"
	// CodeShadowedRule: pairwise pattern intersection shows a rule can
	// never fire because an earlier rule matches the same pattern under
	// the same condition (duplicate chain specialization).
	CodeShadowedRule = "SA022"
	// CodeRewriteCycle: the cost model cannot prove rewriting
	// terminates — the chain-rule mode graph has a cycle (chains cost
	// 0, so a cycle never decreases cost), or a template's declared
	// cost disagrees with the instructions it emits.
	CodeRewriteCycle = "SA023"
	// CodeFootprintMismatch: symbolic interpretation of a rule's
	// rendered template through the data-flow port machinery produced a
	// read/write footprint contradicting the semantics mutation
	// analysis attributed to its instructions — a destination cell
	// never written, a write outside the destination, a source never
	// read, or a register read whose value nothing accounts for.
	CodeFootprintMismatch = "SA024"
	// CodeStructuralInvariant: a cross-target structural invariant
	// failed — the register-class partition is not total, an immediate
	// range is not a well-formed interval, the addressing-mode grammar
	// is ambiguous, or a frame/callee model is internally inconsistent.
	CodeStructuralInvariant = "SA025"
)

// Diagnostic is one finding with a stable code and a location.
type Diagnostic struct {
	Code     string
	Severity Severity
	// Sample is the sample name the finding belongs to; "spec" for
	// machine-description findings.
	Sample string
	// Step is the graph step index the finding anchors to; -1 when the
	// finding has no step granularity.
	Step    int
	Message string
}

func (d Diagnostic) String() string {
	loc := d.Sample
	if d.Step >= 0 {
		loc = fmt.Sprintf("%s#%d", d.Sample, d.Step)
	}
	return fmt.Sprintf("%s %s %s: %s", d.Code, d.Severity, loc, d.Message)
}

// Report collects the diagnostics of one checked discovery.
type Report struct {
	Diags []Diagnostic
}

// Add appends diagnostics.
func (r *Report) Add(ds ...Diagnostic) { r.Diags = append(r.Diags, ds...) }

// Errors counts Error-severity diagnostics.
func (r *Report) Errors() int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == Error {
			n++
		}
	}
	return n
}

// Codes returns the distinct diagnostic codes present, sorted.
func (r *Report) Codes() []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range r.Diags {
		if !seen[d.Code] {
			seen[d.Code] = true
			out = append(out, d.Code)
		}
	}
	sort.Strings(out)
	return out
}

func (r *Report) String() string {
	if len(r.Diags) == 0 {
		return "check: no diagnostics\n"
	}
	var sb strings.Builder
	for _, d := range r.Diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func errf(code string, sample string, step int, format string, args ...interface{}) Diagnostic {
	return Diagnostic{Code: code, Severity: Error, Sample: sample, Step: step,
		Message: fmt.Sprintf(format, args...)}
}

func warnf(code string, sample string, step int, format string, args ...interface{}) Diagnostic {
	return Diagnostic{Code: code, Severity: Warning, Sample: sample, Step: step,
		Message: fmt.Sprintf(format, args...)}
}
