// Package faulty wraps any target.Toolchain in seed-deterministic fault
// injection, turning every simulated machine into an adversarial gauntlet
// for the probe layer. The fault model is the paper's §2 setting taken
// seriously: the discovery unit reaches its target over rsh, so compilers
// crash (transient compile errors), connections drop (assemble/link
// errors), executions hang until a budget kills them, stdout arrives
// truncated or garbled, and an adversarial machine may leak
// nondeterministic scratch-register contents into its output with
// probability p.
//
// Injected faults are environmental, never semantic: an injected error
// marks itself Transient() so the probe layer retries it, and injected
// output corruption is re-drawn on every run so an output quorum can
// outvote it. The schedule is a pure function of (seed, call sequence) —
// two identical discovery runs see identical faults.
package faulty

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"

	"srcg/internal/asm"
	"srcg/internal/target"
)

// Kind names one injectable fault.
type Kind int

// Fault kinds.
const (
	CompileErr  Kind = iota // transient C-compiler crash
	AssembleErr             // transient assembler failure
	LinkErr                 // transient linker failure
	ExecErr                 // transient execution failure (dropped connection)
	Hang                    // execution budget exhaustion (a hung remote run)
	Truncate                // stdout arrives cut short
	Garble                  // stdout arrives with a flipped digit
	numKinds
)

func (k Kind) String() string {
	switch k {
	case CompileErr:
		return "compile-err"
	case AssembleErr:
		return "assemble-err"
	case LinkErr:
		return "link-err"
	case ExecErr:
		return "exec-err"
	case Hang:
		return "hang"
	case Truncate:
		return "truncate"
	case Garble:
		return "garble"
	}
	return "?"
}

// Config tunes the injector.
type Config struct {
	Seed int64
	// Rate is the per-call probability of injecting a fault from Kinds.
	Rate float64
	// Noise is the per-execution probability of scratch-register noise: an
	// independent perturbation of the run's output, modeling a machine
	// whose observable state leaks uninitialized scratch registers.
	Noise float64
	// Kinds restricts which faults are injected (nil/empty = all).
	Kinds []Kind
}

// ParseSpec parses a command-line fault specification "<seed>:<rate>"
// (e.g. "7:0.1") into a Config injecting every fault kind at the given
// rate, with scratch-register noise at the same probability.
func ParseSpec(s string) (Config, error) {
	seedStr, rateStr, ok := strings.Cut(s, ":")
	if !ok {
		return Config{}, fmt.Errorf("faulty: spec %q is not <seed>:<rate>", s)
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return Config{}, fmt.Errorf("faulty: bad seed in %q: %v", s, err)
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil || rate < 0 || rate > 1 {
		return Config{}, fmt.Errorf("faulty: bad rate in %q (want 0..1)", s)
	}
	return Config{Seed: seed, Rate: rate, Noise: rate}, nil
}

// InjectedError is a transient environmental fault.
type InjectedError struct {
	Kind Kind
	Call int // injector call sequence number
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faulty: injected %s (call %d)", e.Kind, e.Call)
}

// Transient marks injected faults for the probe layer's classifier.
func (e *InjectedError) Transient() bool { return true }

// Toolchain is the fault-injecting middleware.
type Toolchain struct {
	inner target.Toolchain
	cfg   Config

	mu       sync.Mutex
	rnd      *rand.Rand
	calls    int
	enabled  [numKinds]bool
	injected map[Kind]int
	noised   int
	corrupts int      // corruption events so far (salts each corruption)
	recent   []string // the last corruptWindow corrupted outputs, oldest first
}

var _ target.Toolchain = (*Toolchain)(nil)

// New wraps a toolchain in the injector.
func New(inner target.Toolchain, cfg Config) *Toolchain {
	t := &Toolchain{
		inner:    inner,
		cfg:      cfg,
		rnd:      rand.New(rand.NewSource(cfg.Seed)),
		injected: map[Kind]int{},
	}
	if len(cfg.Kinds) == 0 {
		for k := Kind(0); k < numKinds; k++ {
			t.enabled[k] = true
		}
	} else {
		for _, k := range cfg.Kinds {
			t.enabled[k] = true
		}
	}
	return t
}

// Name passes through: the injector must not change the discovered
// architecture identity.
func (t *Toolchain) Name() string { return t.inner.Name() }

// Injected reports how many faults of kind k were injected so far.
func (t *Toolchain) Injected(k Kind) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected[k]
}

// InjectedTotal reports all injected faults, scratch noise included.
func (t *Toolchain) InjectedTotal() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.noised
	for _, c := range t.injected {
		n += c
	}
	return n
}

// draw decides whether to inject one of the given kinds at this call. It
// advances the schedule exactly once per call, so the fault sequence is a
// pure function of (seed, call index).
func (t *Toolchain) draw(kinds ...Kind) (Kind, *InjectedError) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	u := t.rnd.Float64()
	pick := t.rnd.Intn(len(kinds))
	if u >= t.cfg.Rate {
		return 0, nil
	}
	avail := make([]Kind, 0, len(kinds))
	for _, k := range kinds {
		if t.enabled[k] {
			avail = append(avail, k)
		}
	}
	if len(avail) == 0 {
		return 0, nil
	}
	k := avail[pick%len(avail)]
	t.injected[k]++
	return k, &InjectedError{Kind: k, Call: t.calls}
}

// CompileC injects transient compiler crashes.
func (t *Toolchain) CompileC(src string) (string, error) {
	if _, err := t.draw(CompileErr); err != nil {
		return "", err
	}
	return t.inner.CompileC(src)
}

// Assemble injects transient assembler failures. Genuine rejects from the
// inner assembler pass through untouched: the injector must never turn the
// accept/reject oracle's answer into its opposite.
func (t *Toolchain) Assemble(text string) (*asm.Unit, error) {
	if _, err := t.draw(AssembleErr); err != nil {
		return nil, err
	}
	return t.inner.Assemble(text)
}

// Link injects transient linker failures.
func (t *Toolchain) Link(units []*asm.Unit) (*asm.Image, error) {
	if _, err := t.draw(LinkErr); err != nil {
		return nil, err
	}
	return t.inner.Link(units)
}

// Execute injects dropped connections, hangs, and stdout corruption, plus
// independent scratch-register noise.
func (t *Toolchain) Execute(img *asm.Image) (string, error) {
	kind, injErr := t.draw(ExecErr, Hang, Truncate, Garble)
	if injErr != nil && (kind == ExecErr || kind == Hang) {
		if kind == Hang {
			injErr = &InjectedError{Kind: Hang, Call: injErr.Call}
		}
		return "", injErr
	}
	out, err := t.inner.Execute(img)
	if err != nil {
		return out, err // genuine execution faults are signal, not noise
	}
	if injErr != nil {
		out = t.corrupt(out, kind)
	}
	t.mu.Lock()
	noise := t.rnd.Float64() < t.cfg.Noise
	t.mu.Unlock()
	if noise {
		t.mu.Lock()
		t.noised++
		t.mu.Unlock()
		out = t.corrupt(out, Garble)
	}
	if injErr != nil || noise {
		out = t.unrepeated(out)
	}
	return out, err
}

// corrupt damages an output string: an empty one becomes a marker salted
// by the monotonic event counter, a truncation cuts it short, and a
// garble turns one character into another digit.
func (t *Toolchain) corrupt(out string, kind Kind) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.corrupts++
	if len(out) == 0 {
		return fmt.Sprintf("\x00garbled%d", t.corrupts)
	}
	if kind == Truncate {
		return out[:t.rnd.Intn(len(out))]
	}
	pos := t.rnd.Intn(len(out))
	b := []byte(out)
	repl := byte('0' + (t.rnd.Intn(10)+t.corrupts)%10)
	if repl == b[pos] {
		repl = '0' + (repl-'0'+1)%10
	}
	b[pos] = repl
	return string(b)
}

// corruptWindow is how many of the latest corrupted outputs a new one
// must differ from. It exceeds the probe layer's default quorum of 7
// runs, so within one quorum every wrong answer the injector serves is a
// different one.
const corruptWindow = 16

// unrepeated returns a corrupted run's output, or a fresh marker salted by
// the event counter when the output repeats one of the last corruptWindow
// corrupted outputs, as a garbled or truncated short output readily does.
// So two runs of the same program inside one quorum window cannot lie the
// same way twice — the fault-model property the probe layer's quorum
// relies on (DESIGN §7): noise never repeats fast enough to outvote the
// truth.
func (t *Toolchain) unrepeated(out string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if slices.Contains(t.recent, out) {
		out = fmt.Sprintf("\x00garbled%d", t.corrupts)
	}
	t.recent = append(t.recent, out)
	if len(t.recent) > corruptWindow {
		t.recent = t.recent[1:]
	}
	return out
}
