package ckpt

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

type rec struct {
	id   uint32
	tags []uint64
}

type unit struct {
	n     uint64
	flag  bool
	delta int
	blob  []byte
	recs  []rec
	byID  map[uint16]uint64
	names map[string]uint64
}

// archive is written once and must serve both directions.
func (u *unit) archive(a *Archive) {
	a.U64(&u.n)
	a.Bool(&u.flag)
	a.Int(&u.delta)
	a.Bytes(&u.blob)
	Slice(a, &u.recs, 12, func(a *Archive, r *rec) {
		a.U32(&r.id)
		Slice(a, &r.tags, 8, (*Archive).U64)
	})
	Map(a, &u.byID, 10, func(a *Archive, _ uint16, v *uint64) { a.U64(v) })
	Map(a, &u.names, 16, func(a *Archive, _ string, v *uint64) { a.U64(v) })
}

func sample() *unit {
	return &unit{
		n: 7, flag: true, delta: -3, blob: []byte("console"),
		recs:  []rec{{id: 1, tags: []uint64{10, 20}}, {id: 2}},
		byID:  map[uint16]uint64{0x300: 1, 0x001: 2, 0xc00: 3},
		names: map[string]uint64{"main": 0x1000, "args": 0x2000, "": 5},
	}
}

func save(t *testing.T, u *unit) []byte {
	t.Helper()
	var w Writer
	if err := Saving(&w).Do(u.archive); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

func TestArchiveRoundTrip(t *testing.T) {
	img := save(t, sample())
	var got unit
	r := NewReader(img)
	if err := Loading(r).Do(got.archive); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Errorf("%d bytes left unread", r.Remaining())
	}
	if want := sample(); !reflect.DeepEqual(&got, want) {
		t.Errorf("loaded %+v\nwant   %+v", got, *want)
	}
	// Map iteration order must not reach the image.
	for i := 0; i < 8; i++ {
		if again := save(t, sample()); string(again) != string(img) {
			t.Fatal("two saves of equal state differ")
		}
	}
}

// TestLengthBoundedByBytesLeft: a count the rest of the image could not
// hold is refused where it is read, whatever shape it prefixes.
func TestLengthBoundedByBytesLeft(t *testing.T) {
	img := save(t, sample())
	// Offsets of the counts: blob, recs, first rec's tags, byID, names.
	blob := 8 + 1 + 8
	recs := blob + 8 + len("console")
	tags := recs + 8 + 4
	byID := tags + 8 + 16 + 4 + 8
	names := byID + 8 + 3*10
	for _, at := range []int{blob, recs, tags, byID, names} {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(bad[at:], 1<<40)
		var got unit
		allocs := testing.AllocsPerRun(1, func() {
			if err := Loading(NewReader(bad)).Do(got.archive); err == nil || !strings.Contains(err.Error(), "claims") {
				t.Errorf("count at %d forged: got %v, want a refused length", at, err)
			}
		})
		if allocs > 64 {
			t.Errorf("count at %d forged: %v allocations", at, allocs)
		}
	}
	for n := 0; n < len(img); n++ {
		var got unit
		if err := Loading(NewReader(img[:n])).Do(got.archive); err == nil {
			t.Fatalf("image cut to %d of %d bytes loaded", n, len(img))
		}
	}
}

func TestMapKeysMustIncrease(t *testing.T) {
	img := save(t, sample())
	firstKey := 8 + 1 + 8 + 8 + len("console") + 8 + 4 + 8 + 16 + 4 + 8 + 8
	for _, k := range []uint16{0x300, 0x301} { // equal to the second key, and past it
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint16(bad[firstKey:], k)
		var got unit
		if err := Loading(NewReader(bad)).Do(got.archive); err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Errorf("first key %#x: got %v, want an ordering error", k, err)
		}
	}
}

func TestErrorsAreSticky(t *testing.T) {
	img := save(t, sample())
	img[8] = 2 // the bool
	got := unit{delta: 99}
	a := Loading(NewReader(img))
	got.archive(a)
	if a.Err() == nil || !strings.Contains(a.Err().Error(), "bad bool") {
		t.Fatalf("got %v, want a bad-bool error", a.Err())
	}
	if got.delta != 99 || got.recs != nil {
		t.Errorf("fields behind the error were loaded: %+v", got)
	}
	a.Fail(nil)
	a.Failf("later")
	if !strings.Contains(a.Err().Error(), "bad bool") {
		t.Errorf("first error replaced by %v", a.Err())
	}
}

// TestRecordsBlock: saving, Records appends zeroed space for the caller to
// encode into; loading, it hands back those bytes in place. A block the
// image is too short for is refused, consuming nothing.
func TestRecordsBlock(t *testing.T) {
	var w Writer
	head, tail := uint8(7), uint8(9)
	a := Saving(&w)
	a.U8(&head)
	blk := a.Records(3, 4)
	for i, b := range blk {
		if b != 0 {
			t.Fatalf("saved block byte %d is %#x, want zero space", i, b)
		}
		blk[i] = byte(i + 1)
	}
	a.U8(&tail)
	img := w.Bytes()
	if len(img) != 1+12+1 {
		t.Fatalf("image is %d bytes, want 14", len(img))
	}

	var h, tl uint8
	l := Loading(NewReader(img))
	l.U8(&h)
	got := l.Records(3, 4)
	l.U8(&tl)
	if l.Err() != nil || h != 7 || tl != 9 || string(got) != string(img[1:13]) {
		t.Fatalf("loaded %d, %v, %d (err %v)", h, got, tl, l.Err())
	}

	r := NewReader(img[:12])
	short := Loading(r)
	short.U8(&h)
	if got := short.Records(3, 4); got != nil || short.Err() == nil || !strings.Contains(short.Err().Error(), "truncated") {
		t.Fatalf("block past the image's end: got %v, error %v", got, short.Err())
	}
	if r.Remaining() != 11 {
		t.Errorf("the refused block consumed %d bytes", 11-r.Remaining())
	}
}
