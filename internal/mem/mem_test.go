package mem

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestReadWriteWidths(t *testing.T) {
	m := New()
	m.Write8(0x1000, 0xab)
	if got := m.Read8(0x1000); got != 0xab {
		t.Errorf("Read8 = %#x", got)
	}
	m.Write16(0x2000, 0xbeef)
	if got := m.Read16(0x2000); got != 0xbeef {
		t.Errorf("Read16 = %#x", got)
	}
	m.Write32(0x3000, 0xdeadbeef)
	if got := m.Read32(0x3000); got != 0xdeadbeef {
		t.Errorf("Read32 = %#x", got)
	}
	m.Write64(0x4000, 0x0123456789abcdef)
	if got := m.Read64(0x4000); got != 0x0123456789abcdef {
		t.Errorf("Read64 = %#x", got)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New()
	m.Write32(0x100, 0x04030201)
	for i, want := range []uint8{1, 2, 3, 4} {
		if got := m.Read8(0x100 + uint64(i)); got != want {
			t.Errorf("byte %d = %d, want %d", i, got, want)
		}
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := New()
	if got := m.Read64(0xdeadbeef000); got != 0 {
		t.Errorf("unwritten Read64 = %#x, want 0", got)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 4) // 64-bit value straddling a page boundary
	m.Write64(addr, 0x1122334455667788)
	if got := m.Read64(addr); got != 0x1122334455667788 {
		t.Errorf("cross-page Read64 = %#x", got)
	}
	if m.Pages() != 2 {
		t.Errorf("Pages() = %d, want 2", m.Pages())
	}
}

func TestRoundTripProperty(t *testing.T) {
	m := New()
	f := func(addr uint64, v uint64) bool {
		addr %= 1 << 40 // keep the page map small
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRead16CrossProperty(t *testing.T) {
	m := New()
	f := func(near uint16, v uint16) bool {
		// Exercise addresses clustered around page boundaries.
		addr := uint64(PageSize)*8 + uint64(near%8) - 4
		m.Write16(addr, v)
		return m.Read16(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64(t *testing.T) {
	m := New()
	for _, v := range []float64{0, 1.5, -2.25, math.Pi, math.Inf(1)} {
		m.WriteFloat64(0x800, v)
		if got := m.ReadFloat64(0x800); got != v {
			t.Errorf("float round trip: got %v want %v", got, v)
		}
	}
	m.WriteFloat64(0x800, math.NaN())
	if got := m.ReadFloat64(0x800); !math.IsNaN(got) {
		t.Errorf("NaN round trip: got %v", got)
	}
}

// TestBytes: the bulk accessors agree with the byte accessors within a
// page and across a boundary, and populate every page they touch, reads
// included, as the narrow accessors do.
func TestBytes(t *testing.T) {
	in := []byte{9, 8, 7, 6, 5}
	for _, c := range []struct {
		addr  uint64
		pages int
	}{{0x10, 1}, {PageSize - 3, 2}} {
		m := New()
		m.WriteBytes(c.addr, in)
		out := m.ReadBytes(c.addr, len(in))
		for i := range in {
			if in[i] != out[i] || m.Read8(c.addr+uint64(i)) != in[i] {
				t.Fatalf("addr %#x byte %d: got %d want %d", c.addr, i, out[i], in[i])
			}
		}
		if m.Pages() != c.pages {
			t.Errorf("addr %#x: %d pages after the write, want %d", c.addr, m.Pages(), c.pages)
		}
		fresh := New()
		fresh.ReadInto(c.addr, out)
		if fresh.Pages() != c.pages || out[0] != 0 {
			t.Errorf("addr %#x: a read of untouched memory populated %d pages and read %d, want %d and 0", c.addr, fresh.Pages(), out[0], c.pages)
		}
	}
}

// TestViewStaysSmall: every hart carries a View for speculation, so the
// View's lookaside must not grow with the Memory's.
func TestViewStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(View{}); n > 2<<10 {
		t.Errorf("a View is %d bytes, want at most 2 KiB", n)
	}
}

func TestReset(t *testing.T) {
	m := New()
	m.Write64(0x1000, 42)
	m.Reset()
	if m.Pages() != 0 || m.Read64(0x1000) != 0 {
		t.Error("Reset did not clear memory")
	}
}
