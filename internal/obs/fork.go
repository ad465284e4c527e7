package obs

import (
	"strings"
	"time"
)

// Fork/Drain/Join are the telemetry half of the parallel probe engine:
// a unit of probe work (a pooled task, or a logical probe the probe cache
// may memoize) runs against a forked tracer — a fresh virtual clock plus
// a recording sink — and its bundle joins the parent in a deterministic
// order, at exactly the position the same work run inline would have
// reached. So the parent's stream is byte-identical at any worker count,
// and a probe run inline, run on a fork, or replayed by the cache leaves
// the same events.

// Recorder is the sink behind a forked tracer: it buffers events until
// Drain packages them into a Replay.
type Recorder struct {
	events []Event
}

// Emit appends the event to the buffer (driven under the tracer's lock).
func (r *Recorder) Emit(e Event) { r.events = append(r.events, e) }

// Flush is a no-op; a fork's state leaves through Drain, never Flush.
func (r *Recorder) Flush() error { return nil }

// Replay is one drained fork bundle: the events with fork-relative
// timestamps, the virtual time the fork consumed, and its counter and
// histogram state. A Replay is immutable once drained — the probe cache
// shares one across goroutines.
type Replay struct {
	Events   []Event
	Elapsed  time.Duration
	Counters []CounterStat
	Hists    []HistStat
}

// Elapsed reads the clock's current position without ticking it.
func (c *VirtualClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Fork returns a child tracer on a fresh VirtualClock with a recording
// sink. The child is independent — its own clock, counters, histograms —
// so concurrent forks never contend; Drain+Join fold it back. Forks of a
// wall-clock tracer still run on virtual time: real time stays attached
// only at the parent's edges.
func (t *Tracer) Fork() *Tracer {
	if t == nil {
		return nil
	}
	rec := &Recorder{}
	f := New(NewVirtualClock(), rec)
	f.rec = rec
	return f
}

// Drain packages a forked tracer's accumulated state into a Replay and
// resets the recording buffer. Only tracers made by Fork can drain;
// Drain on anything else returns nil.
func (t *Tracer) Drain() *Replay {
	if t == nil || t.rec == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &Replay{
		Events:   t.rec.events,
		Elapsed:  t.clock.(*VirtualClock).Elapsed(), // Fork's clock
		Counters: t.countersLocked(),
		Hists:    t.histsLocked(),
	}
	t.rec.events = nil
	return r
}

// Join folds a drained bundle into t at its clock's current position,
// without a tick of its own: events are re-stamped (position +
// fork-relative time) and re-attributed to t's innermost open phase,
// counters and histograms merge, and the clock absorbs the fork's
// elapsed time — t ends where the same work run inline would have left
// it. Callers join bundles in task order — that ordering is what makes
// the stream worker-count-invariant. A nil Replay is a no-op.
func (t *Tracer) Join(r *Replay) {
	if t == nil || r == nil {
		return
	}
	t.mu.Lock()
	var base time.Duration
	if v, ok := t.clock.(*VirtualClock); ok {
		base = v.Elapsed()
	} else {
		base = t.clock.Now() // reading a wall clock does not tick it
	}
	ph := t.current()
	for _, e := range r.Events {
		e.T += base
		if e.Phase == "" && e.Kind.hasPhase() {
			e.Phase = ph
			if e.Kind == KProbe && ph != "" {
				t.phaseLocked(ph).Probes++
			}
		}
		t.emit(e)
	}
	for _, c := range r.Counters {
		t.counters[c.Name] += c.Value
	}
	for _, h := range r.Hists {
		hh, ok := t.hists[h.Name]
		if !ok {
			hh = &Hist{}
			t.hists[h.Name] = hh
		}
		hh.merge(h)
	}
	if a, ok := t.clock.(advancer); ok {
		a.Advance(r.Elapsed)
	}
	t.mu.Unlock()
}

// Unsealed reports whether a counter or histogram describes the execution
// strategy (cache state, pool shape) rather than the discovery itself.
// Unsealed names are visible through Counters()/Report but are never
// emitted into the Flush tail of the event stream: a warm-cache run and a
// cold run must produce byte-identical traces even though their hit
// counts differ.
func Unsealed(name string) bool {
	return strings.HasPrefix(name, "probe.cache_") ||
		strings.HasPrefix(name, "probe.pool_")
}
