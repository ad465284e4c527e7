package faulty

import (
	"errors"
	"testing"

	"srcg/internal/asm"
	"srcg/internal/target"
)

// echo is a well-behaved inner toolchain: every call succeeds and every
// execution prints the same output, so any deviation is the injector's.
type echo struct {
	out       string
	rejects   bool
	execFault error
	calls     int
}

func (e *echo) Name() string { return "echo" }

func (e *echo) CompileC(src string) (string, error) {
	e.calls++
	return "mov a, b", nil
}

func (e *echo) Assemble(text string) (*asm.Unit, error) {
	e.calls++
	if e.rejects {
		return nil, errors.New("as: unknown opcode")
	}
	return &asm.Unit{}, nil
}

func (e *echo) Link(units []*asm.Unit) (*asm.Image, error) {
	e.calls++
	return &asm.Image{}, nil
}

func (e *echo) Execute(img *asm.Image) (string, error) {
	e.calls++
	if e.execFault != nil {
		return "", e.execFault
	}
	return e.out, nil
}

var _ target.Toolchain = (*echo)(nil)

// drive issues one call of the phase the kind belongs to and returns its
// observable result.
func drive(t *Toolchain, k Kind) (string, error) {
	switch k {
	case CompileErr:
		return t.CompileC("main(){}")
	case AssembleErr:
		_, err := t.Assemble("mov a, b")
		return "", err
	case LinkErr:
		_, err := t.Link(nil)
		return "", err
	default:
		return t.Execute(&asm.Image{})
	}
}

// TestEveryKindInjects drives each fault kind in isolation at Rate=1 and
// checks the observable failure mode the probe layer must survive.
func TestEveryKindInjects(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			inner := &echo{out: "12345\n"}
			tc := New(inner, Config{Seed: 3, Rate: 1, Kinds: []Kind{k}})
			out, err := drive(tc, k)
			switch k {
			case CompileErr, AssembleErr, LinkErr, ExecErr, Hang:
				var inj *InjectedError
				if !errors.As(err, &inj) {
					t.Fatalf("err = %v; want an InjectedError", err)
				}
				if inj.Kind != k {
					t.Errorf("injected kind = %v; want %v", inj.Kind, k)
				}
				if !inj.Transient() {
					t.Error("injected faults must be transient")
				}
				if k != ExecErr && k != Hang && inner.calls != 0 {
					t.Error("an injected toolchain error must preempt the inner call")
				}
			case Truncate:
				if err != nil {
					t.Fatalf("truncation is not an error: %v", err)
				}
				if len(out) >= len(inner.out) {
					t.Errorf("truncated output %q is not shorter than %q", out, inner.out)
				}
			case Garble:
				if err != nil {
					t.Fatalf("garbling is not an error: %v", err)
				}
				if out == inner.out || len(out) != len(inner.out) {
					t.Errorf("garbled output %q; want same length, different bytes than %q",
						out, inner.out)
				}
			}
			if tc.Injected(k) == 0 {
				t.Errorf("Injected(%v) = 0 after a Rate=1 call", k)
			}
		})
	}
}

// TestScheduleIsDeterministic: the fault sequence is a pure function of
// (seed, call index) — two injectors with one seed agree call for call.
func TestScheduleIsDeterministic(t *testing.T) {
	run := func() ([]string, []string) {
		tc := New(&echo{out: "777\n"}, Config{Seed: 41, Rate: 0.5, Noise: 0.3})
		var outs, errs []string
		for i := 0; i < 200; i++ {
			out, err := tc.Execute(&asm.Image{})
			outs = append(outs, out)
			if err != nil {
				errs = append(errs, err.Error())
			}
		}
		return outs, errs
	}
	o1, e1 := run()
	o2, e2 := run()
	if len(o1) != len(o2) || len(e1) != len(e2) {
		t.Fatal("replayed schedule diverged in shape")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("call %d: %q vs %q", i, o1[i], o2[i])
		}
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("error %d: %q vs %q", i, e1[i], e2[i])
		}
	}
}

// TestCorruptionNeverRepeatsBackToBack: the quorum's safety rests on noise
// not lying the same way twice running — no corrupted run of a program may
// repeat any of the last corruptWindow corruptions, or noise could outvote
// the truth inside one quorum. A three-character output has only a few
// dozen garbles and truncations, so the draws alone would repeat often.
func TestCorruptionNeverRepeatsBackToBack(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 9, Rate: 1, Kinds: []Kind{Truncate}},
		{Seed: 9, Rate: 1, Kinds: []Kind{Garble}},
		{Seed: 9, Rate: 0, Noise: 1},
		{Seed: 9, Rate: 0.5, Noise: 0.5, Kinds: []Kind{Truncate, Garble}},
	} {
		for _, want := range []string{"31415926\n", "-7\n"} {
			tc := New(&echo{out: want}, cfg)
			var recent []string
			for i := 0; i < 500; i++ {
				out, err := tc.Execute(&asm.Image{})
				if err != nil {
					t.Fatal(err)
				}
				if out == want {
					continue
				}
				for j, prev := range recent {
					if out == prev {
						t.Fatalf("%+v on %q: run %d repeated %q from %d corruptions back",
							cfg, want, i, out, len(recent)-j)
					}
				}
				recent = append(recent, out)
				if len(recent) > corruptWindow {
					recent = recent[1:]
				}
			}
		}
	}
	// Empty outputs corrupt to distinct markers every time.
	tc := New(&echo{out: ""}, Config{Seed: 9, Rate: 1, Kinds: []Kind{Garble}})
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		out, _ := tc.Execute(&asm.Image{})
		if seen[out] {
			t.Fatalf("empty-output corruption repeated %q", out)
		}
		seen[out] = true
	}
}

// TestGenuineSignalPassesThrough: the injector must never mask the target's
// own answers — an assembler reject or a reproducible execution fault is
// the discovery unit's signal.
func TestGenuineSignalPassesThrough(t *testing.T) {
	reject := &echo{rejects: true}
	tc := New(reject, Config{Seed: 1, Rate: 0})
	if _, err := tc.Assemble("frob"); err == nil || err.Error() != "as: unknown opcode" {
		t.Errorf("assembler reject arrived as %v", err)
	}
	fault := &echo{execFault: errors.New("machine: unmapped address")}
	tc = New(fault, Config{Seed: 1, Rate: 0, Noise: 1})
	if _, err := tc.Execute(&asm.Image{}); err == nil || err.Error() != "machine: unmapped address" {
		t.Errorf("execution fault arrived as %v", err)
	}
	if tc.InjectedTotal() != 0 {
		t.Error("noise must not apply to faulted runs")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("7:0.1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Rate != 0.1 || cfg.Noise != 0.1 {
		t.Errorf("ParseSpec(7:0.1) = %+v", cfg)
	}
	for _, bad := range []string{"", "7", "x:0.1", "7:x", "7:1.5", "7:-0.1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestNoiseIsIndependentOfFaultRate: scratch-register noise perturbs
// outputs even with fault injection off.
func TestNoiseIsIndependentOfFaultRate(t *testing.T) {
	tc := New(&echo{out: "2718\n"}, Config{Seed: 5, Rate: 0, Noise: 1})
	for i := 0; i < 20; i++ {
		out, err := tc.Execute(&asm.Image{})
		if err != nil {
			t.Fatal(err)
		}
		if out == "2718\n" {
			t.Fatalf("run %d: Noise=1 left the output clean", i)
		}
	}
	if tc.InjectedTotal() != 20 {
		t.Errorf("InjectedTotal = %d; want 20 noised runs", tc.InjectedTotal())
	}
}
