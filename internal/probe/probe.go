// Package probe is the resilient seam between the discovery unit and a
// target toolchain. The paper interrogates real machines over rsh (§2) —
// compilers crash, links flake, executions hang, and adversarial targets
// answer with noise — so every toolchain interaction of the discovery unit
// is routed through one Prober that
//
//   - classifies errors as permanent (an assembler reject is meaningful
//     signal, §3.1) or transient (marked via a Transient() bool method),
//   - retries transient faults with a capped, fully deterministic backoff
//     schedule (virtual time: durations are computed and accounted, never
//     read from a wall clock), and
//   - re-executes programs under a K-of-N quorum so that a machine lying
//     on one run (nondeterministic scratch registers, garbled stdout)
//     cannot make mutation analysis mis-attribute noise as a semantic
//     difference (§4).
//
// The Prober is also the telemetry choke point: every physical toolchain
// call, retry, and quorum escalation is reported to an obs.Tracer, and
// the resilience counters live there — Stats is a read-only view over the
// tracer's counters, so the probe layer and core.Report() can never
// drift apart on attempts/retries/quorum tallies.
//
// The same seam carries the parallel probe engine and the probe cache.
// A logical probe (one fully resolved retry+quorum interaction) runs on
// its own prober, unless the content-addressed Cache may memoize it: then
// it runs on a fork — forked tracer, snapshotted noisy latch — whose
// telemetry bundle is stored for later hits to replay. Pool tasks
// (internal/pool) run on forks joined in task order. Join stamps a bundle
// where the same work run inline would have landed, so traces are
// byte-identical at any worker count and in any cache state.
package probe

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"srcg/internal/asm"
	"srcg/internal/obs"
	"srcg/internal/target"
)

// The resilience policy, one for every prober: a transient fault is
// retried up to maxRetries times after the first attempt, retry i waits
// min(backoffBase<<(i-1), backoffCap) of virtual time (accounted, never
// slept), and an output quorum spends at most quorumN executions. Two
// agreeing runs accept an output; once runs disagree, the bar rises to
// three.
const (
	maxRetries  = 8
	backoffBase = time.Millisecond
	backoffCap  = 100 * time.Millisecond
	quorumN     = 7
)

// Config says where a Prober reports and what it may memoize.
type Config struct {
	// Trace receives probe-level telemetry: one event per physical
	// toolchain call, retry, and quorum escalation, and the resilience
	// counters Stats reads. Nil gets a private sink-less tracer, so the
	// counters always exist.
	Trace *obs.Tracer
	// Cache, when non-nil, memoizes logical probe outcomes content-
	// addressed (sample text → assembly → quorum-accepted run output), so
	// repeated probes across re-analysis, validation, and whole repeat
	// runs replay instead of hitting the toolchain.
	Cache *Cache
}

// DefaultConfig is a Config with a private tracer and no cache.
func DefaultConfig() Config { return Config{} }

// Counter names the probe layer maintains on its tracer. Stats is a view
// over exactly these; core.Report() renders the same numbers.
const (
	CtrProbes          = "probe.probes"
	CtrAttempts        = "probe.attempts"
	CtrRetries         = "probe.retries"
	CtrFaultsSurvived  = "probe.faults_survived"
	CtrExhausted       = "probe.exhausted"
	CtrQuorumRuns      = "probe.quorum_runs"
	CtrQuorumConflicts = "probe.quorum_conflicts"
	CtrExpectAccepts   = "probe.expect_accepts"
	CtrBackoffNs       = "probe.backoff_ns"

	// HistAttemptNs is the duration histogram over physical toolchain
	// calls (virtual ticks under a VirtualClock, real ns under wall).
	HistAttemptNs = "probe.attempt_ns"
)

// Stats is a snapshot of the resilience work a Prober performed — the
// Diagnostics half of the paper's cost story under a hostile machine
// room. It is a read-only view over the tracer's probe.* counters, not
// an independent tally; Probers sharing one tracer share the counts.
// Cache hits replay the original probe's counters, so these numbers are
// cache-state-invariant (they describe the discovery, not the process);
// the unsealed probe.cache_hits counter exposes the physical savings.
type Stats struct {
	Probes          int           // logical probe requests issued by the discovery unit
	Attempts        int           // toolchain calls (includes retries and quorum runs)
	Retries         int           // re-attempts after a transient fault
	FaultsSurvived  int           // transient faults absorbed (retried or outvoted)
	Exhausted       int           // probes that spent their whole retry budget
	QuorumRuns      int           // executions spent on output quorums
	QuorumConflicts int           // quorums where runs disagreed
	ExpectAccepts   int           // quorums one run settled by printing the expected output
	Backoff         time.Duration // total virtual backoff time scheduled
}

func (s Stats) String() string {
	return fmt.Sprintf("probes=%d attempts=%d retries=%d faults_survived=%d quorum_runs=%d quorum_conflicts=%d expect_accepts=%d exhausted=%d backoff=%s",
		s.Probes, s.Attempts, s.Retries, s.FaultsSurvived, s.QuorumRuns, s.QuorumConflicts, s.ExpectAccepts, s.Exhausted, s.Backoff)
}

// Prober drives one toolchain resiliently. It is safe for concurrent use.
type Prober struct {
	tc    target.Toolchain
	tr    *obs.Tracer
	cache *Cache

	mu sync.Mutex
	// noisy is set the first time two runs of one program disagree, and
	// never cleared: a machine caught lying once pays the higher quorum
	// bar (3 agreeing runs instead of 2), and loses ExecuteExpect's
	// one-run shortcut, for the rest of the session.
	// It is a per-Prober latch, deliberately not a shared counter: a
	// noisy discovery target must not raise the bar for a different
	// toolchain that happens to share the tracer.
	noisy bool
}

// Noisy reports whether the prober has ever caught two runs of one
// program disagreeing.
func (p *Prober) Noisy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.noisy
}

// New wraps a toolchain in the resilience policy.
func New(tc target.Toolchain, cfg Config) *Prober {
	tr := cfg.Trace
	if tr == nil {
		tr = obs.New(nil)
	}
	return &Prober{tc: tc, tr: tr, cache: cfg.Cache}
}

// Fork returns a child prober for one unit of parallel or memoized work:
// same toolchain and cache, reporting to a fork of the tracer,
// with the parent's noisy latch snapshotted. Join folds the child's
// telemetry and latch back in; internal/pool drives forks in task order
// so results and traces are byte-identical at any worker count.
func (p *Prober) Fork() *Prober {
	return &Prober{
		tc:    p.tc,
		tr:    p.tr.Fork(),
		cache: p.cache,
		noisy: p.Noisy(),
	}
}

// Join drains a forked prober's telemetry bundle into p and returns it,
// merging the noisy latch: a machine caught lying in a fork stays caught.
func (p *Prober) Join(sub *Prober) *obs.Replay {
	r := sub.tr.Drain()
	p.tr.Join(r)
	if sub.Noisy() {
		p.latch()
	}
	return r
}

func (p *Prober) latch() {
	p.mu.Lock()
	p.noisy = true
	p.mu.Unlock()
}

// Tracer returns the telemetry tracer all probe events flow to.
func (p *Prober) Tracer() *obs.Tracer { return p.tr }

// Stats snapshots the resilience counters from the tracer.
func (p *Prober) Stats() Stats {
	return Stats{
		Probes:          int(p.tr.Counter(CtrProbes)),
		Attempts:        int(p.tr.Counter(CtrAttempts)),
		Retries:         int(p.tr.Counter(CtrRetries)),
		FaultsSurvived:  int(p.tr.Counter(CtrFaultsSurvived)),
		Exhausted:       int(p.tr.Counter(CtrExhausted)),
		QuorumRuns:      int(p.tr.Counter(CtrQuorumRuns)),
		QuorumConflicts: int(p.tr.Counter(CtrQuorumConflicts)),
		ExpectAccepts:   int(p.tr.Counter(CtrExpectAccepts)),
		Backoff:         time.Duration(p.tr.Counter(CtrBackoffNs)),
	}
}

// outcomeOf classifies a physical call's error for the probe event.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case IsTransient(err):
		return obs.OutcomeTransient
	default:
		return obs.OutcomePermanent
	}
}

// call performs one physical toolchain interaction: it runs fn, counts
// the attempt, observes its duration, and emits the probe event. This is
// the telemetry choke point — every compile, assemble, link, and
// execute in the system lands here exactly once.
func (p *Prober) call(op string, fn func() error) error {
	start := p.tr.Now()
	err := fn()
	dur := p.tr.Now() - start
	p.tr.Count(CtrAttempts, 1)
	p.tr.Observe(HistAttemptNs, int64(dur))
	p.tr.ProbeEvent(op, outcomeOf(err), dur)
	return err
}

// backoff accounts the wait before retry attempt `retry` (1-based). The
// schedule is a pure function of the attempt index; a virtual tracer
// clock absorbs the scheduled duration so the trace timeline reflects it
// without any real sleeping.
func (p *Prober) backoff(retry int) time.Duration {
	d := backoffBase << uint(retry-1)
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	p.tr.Count(CtrBackoffNs, int64(d))
	p.tr.Advance(d)
	return d
}

// retry runs op, retrying transient faults up to the budget. Permanent
// errors pass through untouched — they are the discovery unit's signal.
//
// op reports how many physical transient faults its attempt consumed: a
// simple op returns 1 when the call itself faulted transiently, and the
// execute quorum returns its transient-run count. Faults accumulate
// across attempts and are counted into CtrFaultsSurvived exactly once,
// when a non-transient observation finally lands — the quorum site never
// tallies them too, so each physical fault is survived at most once.
// Exhaustion counts nothing as survived: those faults won.
func (p *Prober) retry(opName string, op func() (faults int, err error)) error {
	p.tr.Count(CtrProbes, 1)
	pending := 0
	var last error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			d := p.backoff(attempt)
			p.tr.Count(CtrRetries, 1)
			p.tr.RetryEvent(opName, attempt, d)
		}
		faults, err := op()
		pending += faults
		if err == nil || !IsTransient(err) {
			if pending > 0 {
				p.tr.Count(CtrFaultsSurvived, int64(pending))
			}
			return err
		}
		last = err
	}
	p.tr.Count(CtrExhausted, 1)
	return &ExhaustedError{Op: opName, Attempts: maxRetries + 1, Last: last}
}

// transientCount is the physical fault cost of a simple (non-quorum)
// attempt: 1 if the call faulted transiently, else 0.
func transientCount(err error) int {
	if err != nil && IsTransient(err) {
		return 1
	}
	return 0
}

// logical resolves one logical probe — a full retry+quorum interaction.
// Without a cache or a content key (memo), fn runs directly on p. With
// both, a quiet settled outcome is memoized under id, and a later
// identical probe replays it: same value, same error, same telemetry
// bundle, no toolchain work. Only a miss forks, since only its bundle may
// be stored; Join stamps a stored or replayed bundle where an inline probe
// would have reached.
func (p *Prober) logical(id entryKey, memo bool, fn func(sub *Prober) (any, error)) (any, error) {
	if !memo || p.cache == nil {
		return fn(p)
	}
	if e, ok := p.cache.lookup(id); ok {
		p.tr.Count(CtrCacheHits, 1)
		p.tr.Join(e.replay)
		return e.val, e.err
	}
	p.tr.Count(CtrCacheMisses, 1)
	sub := p.Fork()
	val, err := fn(sub)
	r := p.Join(sub)
	if !sub.Noisy() && sub.tr.Counter(CtrRetries) == 0 && cacheableErr(err) {
		p.cache.store(id, &cacheEntry{val: val, err: err, replay: r})
	}
	return val, err
}

// cacheableErr admits outcomes into the cache: success and permanent
// errors are signal worth memoizing; transient faults and retry-budget
// exhaustion are weather, and must be re-probed next time.
func cacheableErr(err error) bool {
	if err == nil {
		return true
	}
	if IsTransient(err) {
		return false
	}
	var ex *ExhaustedError
	return !errors.As(err, &ex)
}

// CompileC compiles one translation unit, surviving transient faults.
func (p *Prober) CompileC(src string) (string, error) {
	v, err := p.logical(entryKey{op: "compile", payload: src}, true, func(sub *Prober) (any, error) {
		var text string
		rerr := sub.retry("compile", func() (int, error) {
			cerr := sub.call("compile", func() error {
				var err error
				text, err = sub.tc.CompileC(src)
				return err
			})
			return transientCount(cerr), cerr
		})
		return text, rerr
	})
	text, _ := v.(string)
	return text, err
}

// Assemble assembles text. A reject from the assembler is permanent — it
// is the accept/reject oracle syntax discovery bisects against (§3.1).
func (p *Prober) Assemble(text string) (*asm.Unit, error) {
	v, err := p.logical(entryKey{op: "assemble", payload: text}, true, func(sub *Prober) (any, error) {
		var u *asm.Unit
		rerr := sub.retry("assemble", func() (int, error) {
			aerr := sub.call("assemble", func() error {
				var err error
				u, err = sub.tc.Assemble(text)
				return err
			})
			return transientCount(aerr), aerr
		})
		return u, rerr
	})
	u, _ := v.(*asm.Unit)
	if u != nil && p.cache != nil {
		// Track the handle's content identity so link probes downstream
		// can be keyed by what went into them without inspecting it.
		p.cache.bindUnit(u, text)
	}
	return u, err
}

// Link links assembled units.
func (p *Prober) Link(units []*asm.Unit) (*asm.Image, error) {
	var payload string
	keyed := false
	if p.cache != nil {
		payload, keyed = p.cache.unitsKey(units)
	}
	v, err := p.logical(entryKey{op: "link", payload: payload}, keyed, func(sub *Prober) (any, error) {
		var img *asm.Image
		rerr := sub.retry("link", func() (int, error) {
			lerr := sub.call("link", func() error {
				var err error
				img, err = sub.tc.Link(units)
				return err
			})
			return transientCount(lerr), lerr
		})
		return img, rerr
	})
	img, _ := v.(*asm.Image)
	if img != nil && keyed {
		p.cache.bindImage(img, payload)
	}
	return img, err
}

// Execute runs a linked image under the output quorum: a (stdout, error)
// observation is only believed once enough independent runs agree, so a
// single noisy run can never be attributed as semantics. Permanent
// execution errors (a program faulting) are themselves observations and
// vote like outputs.
func (p *Prober) Execute(img *asm.Image) (string, error) {
	return p.execute(img, entryKey{op: "execute"}, false)
}

// ExecuteExpect is Execute for a caller that knows the output it hopes
// for: mutation analysis asking whether a mutant still prints its
// sample's reference output. While the prober's noisy latch is clear, a
// first error-free run printing exactly want settles alone; any other
// first run is the first vote of Execute's quorum, and a latched prober
// runs that quorum unchanged. want must be an exact reference — the
// ir.Eval output, or a constant the probe planted itself — never an
// output observed on the machine.
func (p *Prober) ExecuteExpect(img *asm.Image, want string) (string, error) {
	return p.execute(img, entryKey{op: "execute-expect", want: want}, true)
}

// execute is the logical probe behind Execute and ExecuteExpect; id
// carries the op and want, and gets the image's link key as its payload.
func (p *Prober) execute(img *asm.Image, id entryKey, expect bool) (string, error) {
	keyed := false
	if p.cache != nil {
		id.payload, keyed = p.cache.imageKey(img)
	}
	v, err := p.logical(id, keyed, func(sub *Prober) (any, error) {
		var out string
		rerr := sub.retry("execute", func() (int, error) {
			o, faults, qerr := sub.quorumExecute(img, id.want, expect)
			out = o
			return faults, qerr
		})
		return out, rerr
	})
	out, _ := v.(string)
	return out, err
}

type observation struct {
	out string
	err error
}

// quorumExecute runs the image until one observation gathers a quorum: two
// agreeing runs normally, three once any disagreement has been seen. With
// expect set and the noisy latch
// clear, a first voting run that prints want without error is accepted
// alone. Transient execution faults do not vote; they consume run budget
// (reported back as the attempt's fault count) and the caller retries the
// whole quorum if the budget empties — including when every run faulted,
// a QuorumError with Votes==0 that is transient like any other quorum
// failure.
func (p *Prober) quorumExecute(img *asm.Image, want string, expect bool) (out string, faults int, err error) {
	votes := map[string]int{}
	obsv := map[string]observation{}
	conflict := false
	var lastFault error
	for run := 0; run < quorumN; run++ {
		p.tr.Count(CtrQuorumRuns, 1)
		var out string
		err := p.call("execute", func() error {
			var err error
			out, err = p.tc.Execute(img)
			return err
		})
		if err != nil && IsTransient(err) {
			faults++
			lastFault = err
			continue // consumes a run slot without voting
		}
		if expect && len(votes) == 0 && err == nil && out == want && !p.Noisy() {
			p.tr.Count(CtrExpectAccepts, 1)
			return out, faults, nil
		}
		key := "out:" + out
		if err != nil {
			key = "err:" + err.Error() + "\x00" + out
		}
		votes[key]++
		obsv[key] = observation{out, err}
		if len(votes) > 1 && !conflict {
			conflict = true
			p.tr.Count(CtrQuorumConflicts, 1)
			p.tr.QuorumEscalation(run + 1)
			p.latch()
		}
		need := 2
		if conflict || p.Noisy() {
			need = 3
		}
		if votes[key] >= need {
			// Runs that voted for a losing observation were noise this
			// quorum outvoted. Transient faults are NOT tallied here:
			// the retry loop owns them (counting both places used to
			// attribute one physical fault twice).
			if losers := run + 1 - votes[key] - faults; losers > 0 {
				p.tr.Count(CtrFaultsSurvived, int64(losers))
			}
			return obsv[key].out, faults, obsv[key].err
		}
	}
	return "", faults, &QuorumError{Runs: quorumN, Votes: len(votes), Faults: faults, Last: lastFault}
}
