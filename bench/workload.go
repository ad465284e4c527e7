package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"srcg"
	"srcg/internal/faulty"
	"srcg/internal/obs"
	"srcg/internal/probe"
	"srcg/internal/target"
)

// workload is one benchmark configuration of srcg.Discover over all five
// targets. README.md records why each exists and which layer it stresses.
type workload struct {
	name    string
	workers int
	faulty  bool // drive the targets through the fault injector
	warm    bool // time repeat discoveries against a filled probe cache
}

var workloads = []workload{
	{name: "discover-serial", workers: 1},
	{name: "discover-faulty", workers: 1, faulty: true},
	{name: "discover-warm", workers: 1, warm: true},
	{name: "discover-parallel", workers: 2},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner is one run of a workload: what every discovery in it shares.
type runner struct {
	workload
	seed int64
	chk  *checker
	heap *heapPeak
}

// faultConfig is discover-faulty's fault model: 12% transient faults plus
// 10% output noise, the gauntlet of DESIGN §7. Its schedule is
// deterministic only at one worker (DESIGN §10), so the workload is serial.
var faultConfig = faulty.Config{Seed: 7, Rate: 0.12, Noise: 0.10}

// stack is one discovery's toolchain: the simulator, optionally timed,
// under the optional fault injector, under the outermost call counter.
type stack struct {
	tc    target.Toolchain
	calls *meter            // physical calls the probe layer makes
	sim   *meter            // the bare simulator, timed; nil unless asked
	flt   *faulty.Toolchain // nil unless the workload injects faults
}

func (w workload) stack(arch string, timeSim bool) *stack {
	tc := srcg.NewTarget(arch)
	s := &stack{}
	if timeSim {
		s.sim = newMeter(tc, true)
		tc = s.sim
	}
	if w.faulty {
		s.flt = faulty.New(tc, faultConfig)
		tc = s.flt
	}
	s.calls = newMeter(tc, false)
	s.tc = s.calls
	return s
}

func (w workload) options(seed int64, cache *probe.Cache, tr *obs.Tracer) srcg.Options {
	return srcg.Options{Seed: seed, Workers: w.workers, Cache: cache, Trace: tr}
}

// callsProblem cross-checks the outer meter against the probe layer: on a
// cold run every attempt the prober counts is one physical call. Cached
// runs replay attempts without making them, so they are exempt.
func callsProblem(s *stack, d *srcg.Discovery, cache *probe.Cache) string {
	if d == nil || cache != nil {
		return ""
	}
	if got, want := s.calls.snapshot().totalCalls(), int64(d.ProbeStats.Attempts); got != want {
		return fmt.Sprintf("meter counted %d toolchain calls, probe layer %d attempts", got, want)
	}
	return ""
}

// cost is what one measured call consumed.
type cost struct {
	wall    time.Duration
	cpu     time.Duration // process user+system time
	gcPause time.Duration
	alloc   float64 // bytes allocated
	mallocs float64 // heap objects allocated
	gcs     float64 // collections completed
}

func measure(fn func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return cost{
		wall:    wall,
		cpu:     c1 - c0,
		gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		alloc:   float64(m1.TotalAlloc - m0.TotalAlloc),
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		gcs:     float64(m1.NumGC - m0.NumGC),
	}
}

// rusage reads this process's resource usage; on failure it is zero.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() float64 {
	return float64(rusage().Maxrss) * 1024 // Linux reports KiB
}

// observation is one timed discovery.
type observation struct {
	cost
	calls  float64 // physical toolchain calls
	solved float64
	heap   float64 // peak live heap, bytes
}

// samples collects one target's timed discoveries.
type samples struct {
	obs       []observation
	setup     time.Duration // the first discovery, or discover-warm's untimed cache fill
	ref       []float64     // seconds per reference computation run among them
	fillCalls float64       // discover-warm: physical calls of the cache fill
}

// speed scales the target's times to reference speed: refNominal over the
// median time of the references run among the target's discoveries. Per
// target, because the machine's speed drifts within a run, and
// discover-warm measures the targets one after another.
func (s *samples) speed() float64 { return refNominal.Seconds() / summarize(s.ref).med }

// timed is the outcome of a run's timed phase.
type timed struct {
	byTarget map[string]*samples
	rss      float64 // peak resident set, bytes
}

// timed measures for about budget, set-up included, so a slow machine
// takes fewer samples rather than a longer run.
//
// The cold workloads repeat rounds that discover every target once in a
// fixed order while the next round is expected to end within the budget.
// The reference runs before every discovery. The first round is their
// set-up, the first use of each target in a fresh process, and it is also
// timed: on the baseline box it runs no slower than later rounds, and the
// discover-faulty rounds are so long that a slow machine leaves room for
// just one more. Ten such runs, each timing one discovery per target
// after an untimed first round, spread discover_s by 22%.
//
// discover-warm gives each target an equal share of the budget. In it, it
// fills a fresh cache (its set-up), times repeat discoveries against the
// cache, then drops the cache, so only one cache is resident at once.
// Each repeat starts on a freshly collected heap: otherwise every few
// repeats a collection marks the whole resident cache and doubles the
// repeat it lands in, and the median depends on how many it hit. What
// drives those collections stays measured, as alloc_mb and peak_heap_mb.
// The reference runs before that collection, so its garbage never lands in
// a repeat.
func (r *runner) timed(budget time.Duration) *timed {
	start := time.Now()
	t := &timed{byTarget: map[string]*samples{}}
	archs := srcg.TargetNames()
	for _, arch := range archs {
		t.byTarget[arch] = &samples{}
	}
	if r.warm {
		share := budget / time.Duration(len(archs))
		for i, arch := range archs {
			end := start.Add(share * time.Duration(i+1))
			smp := t.byTarget[arch]
			cache := probe.NewCache()
			smp.ref = append(smp.ref, reference().Seconds())
			fill := r.discoverOnce(arch, cache)
			smp.setup, smp.fillCalls = fill.wall, fill.calls
			for rep := 0; rep < minWarmReps || time.Now().Before(end); rep++ {
				if rep%2 == 1 {
					smp.ref = append(smp.ref, reference().Seconds())
				}
				runtime.GC()
				smp.obs = append(smp.obs, r.discoverOnce(arch, cache))
			}
		}
		t.rss = maxRSSBytes()
		return t
	}
	for round := 1; ; round++ {
		for _, arch := range archs {
			smp := t.byTarget[arch]
			smp.ref = append(smp.ref, reference().Seconds())
			o := r.discoverOnce(arch, nil)
			if round == 1 {
				smp.setup = o.wall
			}
			smp.obs = append(smp.obs, o)
		}
		perRound := time.Since(start) / time.Duration(round)
		if round >= minColdRounds && time.Since(start)+perRound/2 > budget {
			break
		}
	}
	t.rss = maxRSSBytes()
	return t
}

// minWarmReps is the fewest repeats discover-warm times per target, even
// when the fill leaves less than the target's share.
const minWarmReps = 3

// minColdRounds is the fewest rounds a cold workload times, even when the
// first leaves less than a round of the budget.
const minColdRounds = 2

// discoverOnce times one discovery of arch on a fresh stack and checks it.
func (r *runner) discoverOnce(arch string, cache *probe.Cache) observation {
	s := r.stack(arch, false)
	var d *srcg.Discovery
	var err error
	r.heap.take()
	o := observation{cost: measure(func() { d, err = srcg.Discover(s.tc, r.options(r.seed, cache, nil)) })}
	o.heap = r.heap.take()
	o.calls = float64(s.calls.snapshot().totalCalls())
	if d != nil {
		o.solved = float64(len(d.Outcome.Solved))
	}
	r.chk.check(arch, d, err, callsProblem(s, d, cache))
	return o
}

// sumOfMedians adds up, over targets, the median of f over each target's
// timed discoveries: the cost of one pass over all five targets.
func (t *timed) sumOfMedians(f func(observation) float64) summary {
	return t.sumOverTargets(func(smp *samples) summary { return summarize(smp.values(f)) })
}

// sumOverTargets adds up one summary per target. The quartiles are sums
// of the per-target quartiles, and n is the smallest per-target count.
func (t *timed) sumOverTargets(per func(*samples) summary) summary {
	var s summary
	for _, smp := range t.byTarget {
		one := per(smp)
		if s.n == 0 || one.n < s.n {
			s.n = one.n
		}
		s.q1 += one.q1
		s.med += one.med
		s.q3 += one.q3
	}
	return s
}

func (s *samples) values(f func(observation) float64) []float64 {
	out := make([]float64, len(s.obs))
	for i, o := range s.obs {
		out[i] = f(o)
	}
	return out
}

func wallSeconds(o observation) float64 { return o.wall.Seconds() }

// peakHeap is the largest, over targets, of the lower median peak live
// heap of a target's timed discoveries. Not the run's maximum: at two
// workers, which samples' analyses overlap decides a discovery's peak,
// and the run's maximum doubled from one run to the next. The lower
// median, because on a slow machine discover-faulty times just two
// discoveries per target, and a collection that marks while the analysis
// allocates counts the new objects live, which only ever raises a peak:
// the mean of two would take half of such a spike.
func (t *timed) peakHeap() float64 {
	var peak float64
	for _, smp := range t.byTarget {
		heaps := smp.values(func(o observation) float64 { return o.heap })
		sort.Float64s(heaps)
		peak = max(peak, heaps[(len(heaps)-1)/2])
	}
	return peak
}

// endToEnd derives the end-to-end metrics of a timed phase, and the raw
// wall times and reference times behind its timings. On discover-warm,
// toolchain_calls adds one cache fill to one repeat: the repeats alone
// make no calls.
func (t *timed) endToEnd() (e2e, raw map[string]metric) {
	var fillCalls, setup, setupWall float64
	var refs []float64
	for _, smp := range t.byTarget {
		fillCalls += smp.fillCalls
		setup += smp.setup.Seconds() * smp.speed()
		setupWall += smp.setup.Seconds()
		refs = append(refs, smp.ref...)
	}
	wall := t.sumOfMedians(wallSeconds)
	e2e = map[string]metric{
		"discover_s": timing(t.sumOverTargets(func(smp *samples) summary {
			return summarize(smp.values(wallSeconds)).scale(smp.speed())
		}), "s"),
		"setup_s": {Value: setup, Unit: "s"},
		"toolchain_calls": {Value: fillCalls + t.sumOfMedians(func(o observation) float64 { return o.calls }).med,
			Unit: "count/pass"},
		"solved":       {Value: t.sumOfMedians(func(o observation) float64 { return o.solved }).med, Unit: "count/pass"},
		"alloc_mb":     {Value: t.sumOfMedians(func(o observation) float64 { return o.alloc }).med / 1e6, Unit: "MB/pass"},
		"peak_heap_mb": {Value: t.peakHeap() / 1e6, Unit: "MB"},
	}
	raw = map[string]metric{
		"discover_wall_s": timing(wall, "s"),
		"setup_wall_s":    {Value: setupWall, Unit: "s"},
		"reference_s":     timing(summarize(refs), "s"),
	}
	return e2e, raw
}

// runtimeLayers derives the per-layer metrics the timed phase measures:
// per-target discovery time and the Go runtime's cost per pass.
func (t *timed) runtimeLayers() map[string]metric {
	out := map[string]metric{}
	for arch, smp := range t.byTarget {
		out["target."+arch+".discover_s"] = timing(summarize(smp.values(wallSeconds)), "s")
	}
	wall := t.sumOfMedians(wallSeconds).med
	cpu := t.sumOfMedians(func(o observation) float64 { return o.cpu.Seconds() }).med
	out["go.cpu_s"] = metric{Value: cpu, Unit: "s/pass"}
	out["go.gc_cycles"] = metric{Value: t.sumOfMedians(func(o observation) float64 { return o.gcs }).med, Unit: "count/pass"}
	out["go.gc_pause_s"] = metric{Value: t.sumOfMedians(func(o observation) float64 { return o.gcPause.Seconds() }).med, Unit: "s/pass"}
	out["pool.cpu_util"] = metric{Value: cpu / (wall * float64(runtime.GOMAXPROCS(0))), Unit: "fraction"}
	out["go.max_rss_mb"] = metric{Value: t.rss / 1e6, Unit: "MB"}
	return out
}
