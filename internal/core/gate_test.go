package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"maps"
	"strings"
	"testing"

	"srcg/internal/asm"
	"srcg/internal/check"
	"srcg/internal/obs"
	"srcg/internal/target"
	"srcg/internal/target/x86"
)

// imageNoise is scratch-register noise as a pure function of what runs:
// an execution's output is garbled when a hash of (seed, linked image)
// falls below rate, and always when the image holds the opcode aim beside
// a move of the scan's fixed value ±523441 (mutate's fixedClobber) into a
// register: a fixed-value mutant of the sample whose region holds aim.
// Unlike internal/faulty, which draws from one stream per call, the runs
// it hits do not move when discovery makes fewer toolchain calls
// elsewhere.
//
// The noise is a function of the linked image, so every run of one image
// lies alike: the output quorum sees agreeing runs and accepts the lie,
// and only the checker gate stands between the noise and the data-flow
// graphs. The fixed value is the same under every seed, so a
// checker-gated retry rebuilds the aimed images unchanged and meets the
// same noise: the sample's liveness comes out wrong on every attempt, and
// the gate must drop it. The background rate leaves the rest of the
// discovery to chance.
type imageNoise struct {
	target.Toolchain
	seed int64
	rate float64
	aim  string
}

// newImageNoise is the noise the checker-gate tests run under: 3%
// background and every fixed-value mutant of int.neg.b, whose negl no
// other x86 sample's region holds.
func newImageNoise(seed int64) imageNoise {
	return imageNoise{Toolchain: x86.New(), seed: seed, rate: 0.03, aim: "negl"}
}

func (n imageNoise) Execute(img *asm.Image) (string, error) {
	out, err := n.Toolchain.Execute(img)
	if err != nil || out == "" {
		return out, err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %v", n.seed, *img)
	sum := h.Sum64()
	if float64(sum)/(1<<64) >= n.rate && !n.aimed(img) {
		return out, nil
	}
	b := []byte(out)
	b[sum%uint64(len(b))] ^= 1 // a digit stays a digit
	return string(b), nil
}

// aimed reports whether img holds the opcode aim and a move of ±523441
// into a register.
func (n imageNoise) aimed(img *asm.Image) bool {
	op, fixed := false, false
	for _, in := range img.Instrs {
		op = op || in.Op == n.aim
		fixed = fixed || in.Op == "movl" && len(in.Args) == 2 && in.Args[0].Kind == asm.Imm &&
			(in.Args[0].Imm == 523441 || in.Args[0].Imm == -523441) && in.Args[1].Kind == asm.Reg
	}
	return op && fixed
}

// TestCheckerGateRetriesAndDrops: image noise lies alike on every run of
// an image, so the output quorum accepts it and it reaches mutation
// analysis and corrupts data-flow graphs; the checker gate must catch the
// damage — re-running condemned analyses with fresh seeds and dropping
// incorrigible samples — instead of shipping suspect graphs or aborting. Which runs the noise hits depends on the
// seed, so the assertions aggregate over seeds and check structural
// invariants rather than exact counts. The aimed noise follows int.neg.b
// through its retries, so a drop does not depend on the seed. A drop's
// reason names an error, the kind of diagnostic that condemned the graph,
// even where a warning comes first (int.neg.b's SA006). Whatever spec
// survives must never be silently wrong: a validation program it
// miscompiles fails with an error, never with a wrong output.
func TestCheckerGateRetriesAndDrops(t *testing.T) {
	retried, dropped, negDropped := 0, 0, 0
	for _, seed := range []int64{1, 2, 3} {
		inj := newImageNoise(seed)
		d, err := Discover(inj, Options{Seed: 11, Check: true})
		if err != nil {
			continue // noise killed a bootstrap probe; acceptable degradation
		}
		t.Logf("seed %d: retried %d, dropped %d", seed, d.CheckRetried, len(d.Dropped))
		retried += d.CheckRetried
		dropped += len(d.Dropped)

		for name, reason := range d.Dropped {
			if d.Skipped[name] != reason {
				t.Errorf("seed %d: dropped sample %s missing from Skipped", seed, name)
			}
			if !strings.Contains(reason, " error "+name) {
				t.Errorf("seed %d: dropped sample %s's reason names no error: %s", seed, name, reason)
			}
			if name == "int.neg.b" {
				negDropped++
			}
			if _, ok := d.Analyses[name]; ok {
				t.Errorf("seed %d: dropped sample %s still has an analysis", seed, name)
			}
			if _, ok := d.Graphs[name]; ok {
				t.Errorf("seed %d: dropped sample %s still has a graph", seed, name)
			}
		}
		// Every drop surfaces as an SA015 warning in the check report.
		sa015 := map[string]bool{}
		for _, diag := range d.CheckReport.Diags {
			if diag.Code == check.CodeSampleDropped {
				if diag.Severity != check.Warning {
					t.Error("SA015 is graceful degradation, not an error")
				}
				sa015[diag.Sample] = true
			}
		}
		for name := range d.Dropped {
			if !sa015[name] {
				t.Errorf("seed %d: dropped sample %s has no SA015 diagnostic", seed, name)
			}
		}
		if len(sa015) != len(d.Dropped) {
			t.Errorf("seed %d: %d SA015 diagnostics for %d dropped samples",
				seed, len(sa015), len(d.Dropped))
		}
		if d.CheckRetried > 0 || len(d.Dropped) > 0 {
			if !strings.Contains(d.Report(), "resilience:") {
				t.Errorf("seed %d: Report() omits the resilience summary", seed)
			}
		}
		if !strings.Contains(d.Report(), "probe:") {
			t.Errorf("seed %d: Report() omits the probe summary", seed)
		}
		if d.Spec == nil {
			continue
		}
		passed := 0
		for _, r := range d.Validate(x86.New(), ValidationSuite) {
			if r.OK {
				passed++
			} else if r.Err == nil {
				t.Errorf("seed %d: %s: silent wrong output %q (want %q)", seed, r.Program, r.Got, r.Want)
			}
		}
		t.Logf("seed %d: %d of %d validation programs passed", seed, passed, len(ValidationSuite))
	}
	if retried == 0 {
		t.Error("no analysis was ever retried under image noise")
	}
	if dropped == 0 {
		t.Error("no sample was ever dropped under image noise")
	}
	if negDropped == 0 {
		t.Error("the aimed noise never dropped int.neg.b; its reason went unchecked")
	}
}

// TestCheckerGateWorkersByteIdentical: the checker gate's retries and
// drops run inside each sample's pool task, so under
// TestCheckerGateRetriesAndDrops' noise the pool at Workers 1 and at
// parallelWorkers() must retry, drop and skip the same samples and emit
// byte-identical traces. The noise is a pure function of each linked
// image, so it hits the same runs on any schedule.
func TestCheckerGateWorkersByteIdentical(t *testing.T) {
	retried := 0
	for _, seed := range []int64{1, 2, 3} {
		var traces [2]bytes.Buffer
		var ds [2]*Discovery
		var errs [2]error
		for i, workers := range []int{1, parallelWorkers()} {
			tr := obs.New(nil, obs.NewJSONLSink(&traces[i]))
			inj := newImageNoise(seed)
			ds[i], errs[i] = Discover(inj, Options{Seed: 11, Check: true, Trace: tr, Workers: workers})
			if err := tr.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
			t.Fatalf("seed %d: discovery errors differ: %v vs %v", seed, errs[0], errs[1])
		}
		if errs[0] != nil {
			continue // noise killed a bootstrap probe at both widths
		}
		d1, dn := ds[0], ds[1]
		retried += d1.CheckRetried
		if d1.CheckRetried != dn.CheckRetried || !maps.Equal(d1.Dropped, dn.Dropped) || !maps.Equal(d1.Skipped, dn.Skipped) {
			t.Errorf("seed %d: workers 1 retried %d, dropped %v, skipped %v; workers %d retried %d, dropped %v, skipped %v",
				seed, d1.CheckRetried, d1.Dropped, d1.Skipped, parallelWorkers(), dn.CheckRetried, dn.Dropped, dn.Skipped)
		}
		if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
			t.Errorf("seed %d: JSONL trace at workers=%d differs from serial run:\n%s",
				seed, parallelWorkers(), firstDiffLine(traces[0].String(), traces[1].String()))
		}
	}
	if retried == 0 {
		t.Error("no analysis was retried; the gate went untested in the pool")
	}
}

// TestCleanRunNeverTripsGate: on an honest machine the gate must be inert.
func TestCleanRunNeverTripsGate(t *testing.T) {
	d, err := Discover(x86.New(), Options{Seed: 11, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.CheckRetried != 0 || len(d.Dropped) != 0 {
		t.Errorf("clean run: retried=%d dropped=%d; the gate must be inert",
			d.CheckRetried, len(d.Dropped))
	}
	if errs := d.CheckReport.Errors(); errs != 0 {
		t.Errorf("clean run: %d check errors\n%s", errs, d.CheckReport)
	}
}

// TestRetrySeedIsDeterministicAndDistinct pins the retry-seed derivation:
// re-analysis must be reproducible, yet actually different per sample and
// per attempt (same seed = same mutation schedule = same wrong answer).
func TestRetrySeedIsDeterministicAndDistinct(t *testing.T) {
	if retrySeed(11, "int.add.b_c", 1) != retrySeed(11, "int.add.b_c", 1) {
		t.Error("retrySeed is not deterministic")
	}
	seen := map[int64]string{}
	for _, name := range []string{"int.add.b_c", "int.sub.b_c", "goto.fwd"} {
		for retry := 1; retry <= 3; retry++ {
			s := retrySeed(11, name, retry)
			if s == 11 || s == 12 {
				t.Errorf("retrySeed(%s,%d) collides with the run's own seeds", name, retry)
			}
			if prev, ok := seen[s]; ok {
				t.Errorf("retrySeed collision: %s/%d and %s", name, retry, prev)
			}
			seen[s] = name
		}
	}
}

func TestCountErrors(t *testing.T) {
	diags := []check.Diagnostic{
		{Code: "SA001", Severity: check.Error},
		{Code: "SA015", Severity: check.Warning},
		{Code: "SA002", Severity: check.Error},
	}
	if got := countErrors(diags); got != 2 {
		t.Errorf("countErrors = %d; want 2 (warnings do not condemn a graph)", got)
	}
}
