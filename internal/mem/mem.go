// Package mem implements the simulated physical memory: a sparse,
// page-granular, little-endian 64-bit address space shared by all harts.
// Functional state lives here; the cache models in internal/cache and
// internal/uncore are tag-only timing filters layered on top.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PageBits is log2 of the backing page size.
const PageBits = 12

// PageSize is the backing page size in bytes.
const PageSize = 1 << PageBits

const pageMask = PageSize - 1

// The lookaside is a direct-mapped table of page pointers indexed by page
// number. One entry is not enough: any access pattern touching two pages
// alternately (a matmul row walk against its output vector, a stack frame
// against a heap array) thrashes it and pays the map lookup on every
// access. 4096 entries map 16 MiB, every page a suite kernel touches, so
// the page map is hashed on a page's first touch and on a conflict only;
// a table that maps less than a kernel's arrays pays that hash on most of
// its accesses. The table is 64 KiB, once per Memory. A View keeps its
// own, smaller table (view.go).
const (
	lookasideBits = 12
	lookasideSize = 1 << lookasideBits //coyote:mut-survivor equivalent: host-side memo capacity; entries are tag-checked, so size affects only lookup speed, never results
	lookasideMask = lookasideSize - 1
)

type lookEntry struct {
	base uint64
	p    *page
}

type page [PageSize]byte

// Memory is a sparse physical memory. The zero value is not usable; call
// New. Memory is not safe for concurrent mutation; the simulator core is
// single-threaded by design (see DESIGN.md §5).
type Memory struct {
	pages map[uint64]*page

	// direct-mapped lookaside to avoid a map hit on every access.
	look [lookasideSize]lookEntry
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

func (m *Memory) pageFor(addr uint64) *page {
	base := addr &^ pageMask
	e := &m.look[addr>>PageBits&lookasideMask]
	if e.p != nil && e.base == base {
		return e.p
	}
	p, ok := m.pages[base]
	if !ok {
		p = new(page) //coyote:alloc-ok first-touch page allocation; steady state hits resident pages via the lookaside
		m.pages[base] = p
	}
	e.base, e.p = base, p
	return p
}

// Pages returns the number of populated backing pages.
func (m *Memory) Pages() int { return len(m.pages) }

// Footprint returns the populated memory size in bytes.
func (m *Memory) Footprint() uint64 { return uint64(len(m.pages)) * PageSize }

// Reset drops all contents.
func (m *Memory) Reset() {
	m.pages = make(map[uint64]*page)
	m.look = [lookasideSize]lookEntry{}
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint64) uint8 {
	return m.pageFor(addr)[addr&pageMask]
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint64, v uint8) {
	m.pageFor(addr)[addr&pageMask] = v
}

// Read16 loads a little-endian 16-bit value (any alignment).
func (m *Memory) Read16(addr uint64) uint16 {
	if o := addr & pageMask; o <= PageSize-2 {
		p := m.pageFor(addr)
		return binary.LittleEndian.Uint16(p[o:])
	}
	return uint16(m.Read8(addr)) | uint16(m.Read8(addr+1))<<8
}

// Write16 stores a little-endian 16-bit value.
func (m *Memory) Write16(addr uint64, v uint16) {
	if o := addr & pageMask; o <= PageSize-2 {
		p := m.pageFor(addr)
		binary.LittleEndian.PutUint16(p[o:], v)
		return
	}
	m.Write8(addr, byte(v))
	m.Write8(addr+1, byte(v>>8))
}

// Read32 loads a little-endian 32-bit value.
func (m *Memory) Read32(addr uint64) uint32 {
	if o := addr & pageMask; o <= PageSize-4 {
		p := m.pageFor(addr)
		return binary.LittleEndian.Uint32(p[o:])
	}
	return uint32(m.Read16(addr)) | uint32(m.Read16(addr+2))<<16
}

// Write32 stores a little-endian 32-bit value.
func (m *Memory) Write32(addr uint64, v uint32) {
	if o := addr & pageMask; o <= PageSize-4 {
		p := m.pageFor(addr)
		binary.LittleEndian.PutUint32(p[o:], v)
		return
	}
	m.Write16(addr, uint16(v))
	m.Write16(addr+2, uint16(v>>16))
}

// Read64 loads a little-endian 64-bit value.
func (m *Memory) Read64(addr uint64) uint64 {
	if o := addr & pageMask; o <= PageSize-8 {
		p := m.pageFor(addr)
		return binary.LittleEndian.Uint64(p[o:])
	}
	return uint64(m.Read32(addr)) | uint64(m.Read32(addr+4))<<32
}

// Write64 stores a little-endian 64-bit value.
func (m *Memory) Write64(addr uint64, v uint64) {
	if o := addr & pageMask; o <= PageSize-8 {
		p := m.pageFor(addr)
		binary.LittleEndian.PutUint64(p[o:], v)
		return
	}
	m.Write32(addr, uint32(v))
	m.Write32(addr+4, uint32(v>>32))
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	m.ReadInto(addr, out)
	return out
}

// ReadInto fills dst with the bytes starting at addr, one copy per page.
// Like the narrow loads it populates every page it reads, and an address
// past the top of the space wraps to 0.
func (m *Memory) ReadInto(addr uint64, dst []byte) {
	for len(dst) > 0 {
		n := copy(dst, m.pageFor(addr)[addr&pageMask:])
		dst = dst[n:]
		addr += uint64(n)
	}
}

// WriteBytes stores b starting at addr, one copy per page.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(m.pageFor(addr)[addr&pageMask:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadFloat64 loads an IEEE-754 double.
func (m *Memory) ReadFloat64(addr uint64) float64 {
	return math.Float64frombits(m.Read64(addr))
}

// WriteFloat64 stores an IEEE-754 double.
func (m *Memory) WriteFloat64(addr uint64, v float64) {
	m.Write64(addr, math.Float64bits(v))
}

// String summarises the memory for debugging.
func (m *Memory) String() string {
	return fmt.Sprintf("mem{%d pages, %d KiB}", len(m.pages), m.Footprint()/1024)
}
