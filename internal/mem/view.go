package mem

import "encoding/binary"

// View is a read-only window onto a Memory that is safe to use from a
// worker goroutine while no goroutine mutates the Memory. Unlike the
// Memory accessors, a View never allocates backing pages (absent pages
// read as zero — the same value pageFor would return after allocating)
// and never touches the Memory's shared lookaside; each View carries its
// own. The parallel orchestrator gives every hart a private View for the
// speculative execution phase, during which all memory writes are
// buffered hart-side, so concurrent View reads race with nothing.
//
// A View must not be used across a Memory.Reset (the cached page pointers
// would go stale); the simulator never resets memory mid-run.
//
// Every hart holds a View for speculation, so its lookaside stays at 64
// entries (1 KiB) rather than the Memory's 4096: speculation reads a
// quantum's worth of addresses, and a 128-hart system would otherwise carry
// 8 MiB of view tables.
type View struct {
	m *Memory

	look [viewLookSize]lookEntry
}

const viewLookSize = 64 //coyote:mut-survivor equivalent: host-side memo capacity; entries are tag-checked, so size affects only lookup speed, never results

// NewView returns a read-only view of m.
func (m *Memory) NewView() View { return View{m: m} }

// peek returns the backing page for addr without allocating; nil when the
// page is not populated. Absent pages are not cached so a later write
// through the owning Memory becomes visible to the view.
func (v *View) peek(addr uint64) *page {
	base := addr &^ pageMask
	e := &v.look[addr>>PageBits&(viewLookSize-1)]
	if e.p != nil && e.base == base {
		return e.p
	}
	p, ok := v.m.pages[base]
	if !ok {
		return nil
	}
	//coyote:specwrite-ok lookaside fill: caches a pointer to an existing page; memory contents are untouched and the entry is recomputed on demand
	e.base, e.p = base, p
	return p
}

// Read8 loads one byte.
func (v *View) Read8(addr uint64) uint8 {
	p := v.peek(addr)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Read16 loads a little-endian 16-bit value (any alignment).
func (v *View) Read16(addr uint64) uint16 {
	if o := addr & pageMask; o <= PageSize-2 {
		p := v.peek(addr)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint16(p[o:])
	}
	return uint16(v.Read8(addr)) | uint16(v.Read8(addr+1))<<8
}

// Read32 loads a little-endian 32-bit value.
func (v *View) Read32(addr uint64) uint32 {
	if o := addr & pageMask; o <= PageSize-4 {
		p := v.peek(addr)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(p[o:])
	}
	return uint32(v.Read16(addr)) | uint32(v.Read16(addr+2))<<16
}

// Read64 loads a little-endian 64-bit value.
func (v *View) Read64(addr uint64) uint64 {
	if o := addr & pageMask; o <= PageSize-8 {
		p := v.peek(addr)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[o:])
	}
	return uint64(v.Read32(addr)) | uint64(v.Read32(addr+4))<<32
}
