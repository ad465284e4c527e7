package machine

import (
	"fmt"
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
	cpu := NewCPU(0)
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
	cpu := NewCPU(0)
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
	c := NewCPU(0)
	out, err := c.Run("toy", 2, func(pc int) (int, error) {
		c.Out.WriteByte('.')
		return pc + 1, nil
	})
	if out != ".." || err == nil || err.Error() != "toy: PC 2 outside code [0,2)" {
		t.Errorf("escape: Run = %q, %v", out, err)
	}

	c = NewCPU(0)
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

	c = NewCPU(0)
	out, err = c.Run("toy", 1, func(pc int) (int, error) {
		c.Out.WriteString("ok")
		c.Halted = true
		return pc, nil
	})
	if out != "ok" || err != nil {
		t.Errorf("halt: Run = %q, %v", out, err)
	}
}

// TestMemoryPageBoundary pins little-endian order for accesses that
// straddle a 256-byte and a 4 KiB boundary.
func TestMemoryPageBoundary(t *testing.T) {
	m := NewMemory()
	m.Store(0x1ffe, 4, 0x11223344)
	for i, want := range []uint64{0x44, 0x33, 0x22, 0x11} {
		if got := m.Load(0x1ffe+uint64(i), 1); got != want {
			t.Errorf("byte %d = %#x, want %#x", i, got, want)
		}
	}
	if got := m.Load(0x1ffe, 4); got != 0x11223344 {
		t.Errorf("Load = %#x", got)
	}
	m.Store(0x20fb, 8, 0x0102030405060708)
	if got := m.Load(0x20fb, 8); got != 0x0102030405060708 {
		t.Errorf("8-byte Load = %#x", got)
	}
	if got := m.Load(0x2100, 2); got != 0x0203 {
		t.Errorf("upper half of straddling store = %#x, want 0x203", got)
	}
	if got := m.Load(0x3000, 8); got != 0 {
		t.Errorf("untouched memory reads %#x, want 0", got)
	}
}

// TestMemoryStoreThenLoadOutOfBounds pins what one step sees after an
// out-of-bounds store: the bytes still land, a load reads them back, and
// the fault names the store.
func TestMemoryStoreThenLoadOutOfBounds(t *testing.T) {
	m := NewMemory()
	m.AddBound(0x100, 0x200)
	m.Store(0x300, 4, 0xdeadbeef)
	if got := m.Load(0x300, 4); got != 0xdeadbeef {
		t.Errorf("Load after out-of-bounds Store = %#x", got)
	}
	if m.Fault() == nil || m.Fault().Error() != "machine: memory access fault at 0x300" {
		t.Errorf("fault = %v", m.Fault())
	}
}

// TestMemoryFirstFaultLatches pins that the first out-of-bounds access is
// the one reported.
func TestMemoryFirstFaultLatches(t *testing.T) {
	m := NewMemory()
	m.AddBound(0x100, 0x200)
	m.AddBound(0x800, 0x900)
	m.Load(0x1fe, 4)
	m.Store(0x8ff, 2, 1)
	m.Load(0x150, 4)
	if m.Fault() == nil || m.Fault().Error() != "machine: memory access fault at 0x1fe" {
		t.Errorf("fault = %v, want the first access's", m.Fault())
	}
}

// TestLoadCStringBoundaries pins LoadCString across a page boundary and at
// its 64 KiB limit.
func TestLoadCStringBoundaries(t *testing.T) {
	m := NewMemory()
	for i, b := range []byte("straddle\x00") {
		m.Store(uint64(0xffc+i), 1, uint64(b))
	}
	if s, err := m.LoadCString(0xffc); err != nil || s != "straddle" {
		t.Errorf("LoadCString = %q, %v", s, err)
	}

	m = NewMemory()
	const base = 0x40000
	for i := uint64(0); i < 1<<16; i++ {
		m.Store(base+i, 1, 'x')
	}
	if _, err := m.LoadCString(base); err == nil || err.Error() != "machine: unterminated string at 0x40000" {
		t.Errorf("64 KiB without a NUL: err = %v", err)
	}
	m.Store(base+1<<16-1, 1, 0)
	if s, err := m.LoadCString(base); err != nil || len(s) != 1<<16-1 {
		t.Errorf("NUL at the last byte: len %d, err %v", len(s), err)
	}
}

// TestMemoryUnboundedWraps pins a memory with no bounds: no access
// faults, and a store that runs off the top of the address space wraps
// to address 0.
func TestMemoryUnboundedWraps(t *testing.T) {
	m := NewMemory()
	m.Store(^uint64(0)-1, 4, 0x11223344)
	if m.Fault() != nil {
		t.Fatalf("unbounded memory faulted: %v", m.Fault())
	}
	if got := m.Load(0, 2); got != 0x1122 {
		t.Errorf("wrapped bytes = %#x, want 0x1122", got)
	}
	if got := m.Load(^uint64(0)-1, 4); got != 0x11223344 {
		t.Errorf("Load = %#x", got)
	}
}

// TestMemoryBoundsRejectWrap: an access whose end wraps past the top of
// the address space lies inside no bound, even when its wrapped end lies
// inside one.
func TestMemoryBoundsRejectWrap(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		for _, addr := range []uint64{-uint64(size), -uint64(size) + 1} {
			m := NewMemory()
			m.AddBound(0, 0x100)
			if size == 1 {
				m.Store(addr, size, 1)
			} else {
				m.Load(addr, size)
			}
			want := fmt.Sprintf("machine: memory access fault at %#x", addr)
			if addr == 0 {
				want = "<nil>" // size 1 at address 0 does not wrap
			}
			if got := fmt.Sprint(m.Fault()); got != want {
				t.Errorf("size %d at %#x: fault = %s, want %s", size, addr, got, want)
			}
		}
	}
}
