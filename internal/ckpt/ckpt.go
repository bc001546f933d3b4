// Package ckpt is the low-level binary encoding shared by every
// component's checkpoint serializer. It sits below internal/evsim,
// internal/cache, internal/cpu, internal/mem, internal/uncore and
// internal/core so each package can serialize its own unexported state
// without import cycles; the file format (magic, schema version,
// checksum) lives in internal/checkpoint, above internal/core.
//
// The encoding is deliberately plain: little-endian fixed-width integers
// and length-prefixed byte strings in a statically known field order,
// with no reflection and no per-field tags. A component states that order
// once, in one archive(a *Archive) method that both saves and loads: an
// Archive wraps a Writer or a Reader and every field accessor takes a
// pointer, so the two directions cannot drift apart. Variable-length
// shapes go through Slice and Map, the only places a length is read — and
// a length is refused unless the bytes left could hold that many
// elements. The archive methods ARE the schema: any layout change must
// bump checkpoint.SchemaVersion (DESIGN.md §14).
package ckpt

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Writer accumulates an image in memory.
type Writer struct{ buf []byte }

// Bytes returns the encoded contents.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the encoded size so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reader is a position in an image. Components sharing one Reader decode
// consecutive sections of it.
type Reader struct {
	b   []byte
	off int
}

// NewReader starts at the first byte of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Archive moves a component's fields between memory and an image in
// whichever direction it was opened for. Errors are sticky: the first one
// (a short read, a refused length, or a value check reported through Fail)
// is what Err returns; after it, loads leave their targets alone and
// consume nothing.
type Archive struct {
	w   *Writer
	r   *Reader
	err error
}

// Saving opens an archive that appends to w.
func Saving(w *Writer) *Archive { return &Archive{w: w} }

// Loading opens an archive that decodes from r.
func Loading(r *Reader) *Archive { return &Archive{r: r} }

// Loading reports whether fields are being read from an image.
func (a *Archive) Loading() bool { return a.r != nil }

// Err returns the first error, or nil.
func (a *Archive) Err() error { return a.err }

// Fail records err unless it is nil or an earlier error already stands.
func (a *Archive) Fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// Failf is Fail(fmt.Errorf(format, args...)).
func (a *Archive) Failf(format string, args ...any) { a.Fail(fmt.Errorf(format, args...)) }

// Do runs one component's archive method and returns what went wrong.
func (a *Archive) Do(f func(*Archive)) error {
	f(a)
	return a.err
}

// In runs f unless an error already stands; an error f raises gains the
// formatted prefix, which says where in the image it happened.
func (a *Archive) In(f func(*Archive), format string, args ...any) {
	if a.err == nil {
		if f(a); a.err != nil {
			a.err = fmt.Errorf(format+": %w", append(args, a.err)...)
		}
	}
}

// Component is a unit of another package, archived through its exported
// pair so that its pre-save guards and post-load checks run.
type Component interface {
	Checkpoint(*Writer) error
	Restore(*Reader) error
}

// Sub archives c in place; an error it returns gains the formatted prefix.
func (a *Archive) Sub(c Component, format string, args ...any) {
	a.In(func(a *Archive) {
		if a.r != nil {
			a.Fail(c.Restore(a.r))
		} else {
			a.Fail(c.Checkpoint(a.w))
		}
	}, format, args...)
}

// next consumes the next n bytes of the image being loaded, or fails.
func (a *Archive) next(n int) []byte {
	if a.err != nil {
		return nil
	}
	if n > a.r.Remaining() {
		a.err = fmt.Errorf("ckpt: truncated section: need %d bytes at offset %d of %d", n, a.r.off, len(a.r.b))
		return nil
	}
	a.r.off += n
	return a.r.b[a.r.off-n : a.r.off]
}

// U64 archives a little-endian uint64.
func (a *Archive) U64(p *uint64) {
	if a.r == nil {
		a.w.buf = binary.LittleEndian.AppendUint64(a.w.buf, *p)
	} else if b := a.next(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// U32 archives a little-endian uint32.
func (a *Archive) U32(p *uint32) {
	if a.r == nil {
		a.w.buf = binary.LittleEndian.AppendUint32(a.w.buf, *p)
	} else if b := a.next(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

// U16 archives a little-endian uint16.
func (a *Archive) U16(p *uint16) {
	if a.r == nil {
		a.w.buf = binary.LittleEndian.AppendUint16(a.w.buf, *p)
	} else if b := a.next(2); b != nil {
		*p = binary.LittleEndian.Uint16(b)
	}
}

// U8 archives one byte.
func (a *Archive) U8(p *uint8) {
	if a.r == nil {
		a.w.buf = append(a.w.buf, *p)
	} else if b := a.next(1); b != nil {
		*p = b[0]
	}
}

// Bool archives a bool as one byte; loading any byte but 0 or 1 fails.
func (a *Archive) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	if a.U8(&v); v > 1 {
		a.Failf("ckpt: bad bool byte %#x at offset %d", v, a.r.off-1)
	}
	*p = v == 1
}

// Int archives an int as a two's-complement uint64.
func (a *Archive) Int(p *int) {
	v := uint64(*p)
	a.U64(&v)
	*p = int(v)
}

// Bytes archives a length-prefixed byte string in one copy. Loading sets
// *p to a fresh slice, never longer than the bytes left in the image.
func (a *Archive) Bytes(p *[]byte) {
	n := a.length(len(*p), 1)
	if a.r == nil {
		a.w.buf = append(a.w.buf, *p...)
	} else if a.err == nil {
		*p = slices.Clone(a.next(n))
	}
}

// String archives a length-prefixed string.
func (a *Archive) String(p *string) {
	b := []byte(*p)
	a.Bytes(&b)
	*p = string(b)
}

// Len archives the size of a structure the machine's configuration fixes
// (cache lines, DRAM banks, harts): it is written for the loader to
// compare, never to allocate by, and a mismatch is an error naming what.
func (a *Archive) Len(n int, what string) {
	got := uint64(n)
	if a.U64(&got); got != uint64(n) {
		a.Failf("checkpoint has %d %s, this machine has %d (configuration mismatch)", got, what, n)
	}
}

// Records archives n records of size bytes each as one block with no
// count in front: like Len's structure, n is fixed by the machine's
// configuration. Saving, it appends n×size zero bytes to the image and
// returns them for the caller to encode into; loading, it returns the next
// n×size bytes for the caller to decode, or nil — consuming nothing — when
// fewer are left or an error already stands. A component whose per-field
// accessor calls dominate its save and restore (a cache's tag store)
// encodes its fixed-layout records through it in one pass.
func (a *Archive) Records(n, size int) []byte {
	if a.r != nil {
		return a.next(n * size)
	}
	at := len(a.w.buf)
	a.w.buf = append(a.w.buf, make([]byte, n*size)...)
	return a.w.buf[at:]
}

// length archives an element count. It is the one place a count is read:
// a count the bytes left could not hold at minElemBytes apiece is refused,
// so a corrupt or hostile image costs an error, never an allocation or a
// loop it sized.
func (a *Archive) length(n, minElemBytes int) int {
	got := uint64(n)
	if a.U64(&got); a.err != nil {
		return 0
	}
	if a.r != nil && got > uint64(a.r.Remaining()/minElemBytes) {
		a.Failf("ckpt: image claims %d entries of %d bytes or more with %d bytes left", got, minElemBytes, a.r.Remaining())
		return 0
	}
	return int(got)
}

// Slice archives a variable-length list: its length, then each element in
// order through each. Loading replaces *s (with nil when the list is
// empty); minElemBytes is the least one element can occupy in the image.
func Slice[T any](a *Archive, s *[]T, minElemBytes int, each func(*Archive, *T)) {
	n := a.length(len(*s), minElemBytes)
	if a.r != nil {
		if *s = nil; n > 0 {
			*s = make([]T, n)
		}
	}
	for i := 0; i < n && a.err == nil; i++ {
		each(a, &(*s)[i])
	}
}

// Map archives a map as its size, then each key followed by what each
// archives of its value, in increasing key order — which makes the
// encoding canonical, and is required of an image being loaded. each runs
// after the key was accepted, so it may act on it. Loading replaces *m;
// minElemBytes counts the key.
func Map[K uint16 | uint64 | string, V any](a *Archive, m *map[K]V, minElemBytes int, each func(*Archive, K, *V)) {
	keys := make([]K, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	n := a.length(len(keys), minElemBytes)
	if a.r != nil {
		*m, keys = make(map[K]V, n), make([]K, n)
	}
	for i := 0; i < n; i++ {
		k := &keys[i]
		switch p := any(k).(type) {
		case *uint16:
			a.U16(p)
		case *uint64:
			a.U64(p)
		case *string:
			a.String(p)
		}
		if a.err == nil && i > 0 && *k <= keys[i-1] {
			a.Failf("ckpt: map keys out of order at %v", *k)
		}
		if a.err != nil {
			return
		}
		v := (*m)[*k]
		if each(a, *k, &v); a.r != nil {
			(*m)[*k] = v
		}
	}
}
