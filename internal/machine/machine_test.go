package machine

import (
	"testing"
	"testing/quick"
)

func TestMemoryRoundTrip(t *testing.T) {
	f := func(addr uint32, v uint32) bool {
		m := NewMemory()
		m.Store(uint64(addr), 4, uint64(v))
		return m.Load(uint64(addr), 4) == uint64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryLittleEndian(t *testing.T) {
	m := NewMemory()
	m.Store(100, 4, 0x11223344)
	if m.Load(100, 1) != 0x44 || m.Load(103, 1) != 0x11 {
		t.Errorf("byte order wrong: %x %x", m.Load(100, 1), m.Load(103, 1))
	}
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory()
	m.AddBound(100, 200)
	m.Store(150, 4, 1)
	if m.Fault() != nil {
		t.Fatalf("in-bounds store faulted: %v", m.Fault())
	}
	m.Load(198, 4) // crosses the upper bound
	if m.Fault() == nil {
		t.Fatal("boundary-crossing load must fault")
	}
	// The fault latches: later valid accesses do not clear it.
	first := m.Fault()
	m.Load(150, 4)
	if m.Fault() != first {
		t.Error("fault must latch")
	}
}

func TestMemoryUnboundedByDefault(t *testing.T) {
	m := NewMemory()
	m.Store(1<<40, 8, 7)
	if m.Fault() != nil {
		t.Errorf("unbounded memory faulted: %v", m.Fault())
	}
}

func TestSignExtendTruncate(t *testing.T) {
	f := func(v int32) bool {
		return SignExtend(Truncate(int64(v), 32), 32) == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if SignExtend(0xFFFF, 16) != -1 {
		t.Errorf("SignExtend(0xFFFF,16) = %d", SignExtend(0xFFFF, 16))
	}
	if SignExtend(0x7FFF, 16) != 32767 {
		t.Errorf("SignExtend(0x7FFF,16) = %d", SignExtend(0x7FFF, 16))
	}
}

func TestPrintf(t *testing.T) {
	cpu := NewCPU()
	if err := cpu.Printf("%i\n", []int64{42}); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Printf("x=%d%%\n", []int64{-7}); err != nil {
		t.Fatal(err)
	}
	if got := cpu.Out.String(); got != "42\nx=-7%\n" {
		t.Errorf("out = %q", got)
	}
	if err := cpu.Printf("%q", nil); err == nil {
		t.Error("unsupported directive must error")
	}
	if err := cpu.Printf("%i", nil); err == nil {
		t.Error("missing argument must error")
	}
}

func TestLoadCString(t *testing.T) {
	m := NewMemory()
	for i, b := range []byte("hi\x00") {
		m.Store(uint64(500+i), 1, uint64(b))
	}
	s, err := m.LoadCString(500)
	if err != nil || s != "hi" {
		t.Errorf("LoadCString = %q, %v", s, err)
	}
}

func TestStepBudget(t *testing.T) {
	cpu := NewCPU()
	cpu.MaxSteps = 3
	for i := 0; i < 3; i++ {
		if err := cpu.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	if err := cpu.Tick(); err == nil {
		t.Error("budget exhaustion must error")
	}
}

// TestRunExits pins the shared run loop's exits. The probe layer votes on
// error strings, so an escaped PC and a latched fault must read the same
// on every target.
func TestRunExits(t *testing.T) {
	c := NewCPU()
	out, err := c.Run("toy", 2, func(pc int) (int, error) {
		c.Out.WriteByte('.')
		return pc + 1, nil
	})
	if out != ".." || err == nil || err.Error() != "toy: PC 2 outside code [0,2)" {
		t.Errorf("escape: Run = %q, %v", out, err)
	}

	c = NewCPU()
	c.Mem.AddBound(0, 4)
	steps := 0
	_, err = c.Run("toy", 1, func(pc int) (int, error) {
		steps++
		c.Mem.Load(8, 1)
		return pc, nil
	})
	if steps != 1 || err == nil || err.Error() != "machine: memory access fault at 0x8" {
		t.Errorf("fault: Run = %v after %d steps; want the fault after one", err, steps)
	}

	c = NewCPU()
	out, err = c.Run("toy", 1, func(pc int) (int, error) {
		c.Out.WriteString("ok")
		c.Halted = true
		return pc, nil
	})
	if out != "ok" || err != nil {
		t.Errorf("halt: Run = %q, %v", out, err)
	}
}
