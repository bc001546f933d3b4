package asm

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/coyote-sim/coyote/internal/kernels"
	"github.com/coyote-sim/coyote/internal/riscv"
)

// hostileSources are the inputs that used to cost the host gigabytes or
// assemble to something other than what they say (EXPERIMENTS.md E18).
var hostileSources = []string{
	".data\n.space 0x100000000",
	".space 0x40000000",
	"jalr ra, sp, 5000\njalr ra, 5000(sp)\nvsll.vi v1, v2, 20\nvsll.vi v1, v2, -1",
	".set N, 8\n.data\n.space N\n.set N, 0x100000000",
	".set N, 8\n.data\n.space N\n.set N, -1",
	"csrrwi a0, mstatus, 256\nvsetivli t0, 260, e32, m1",
}

// measured runs f and reports its wall time and the bytes it allocated.
func measured(f func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.TotalAlloc - before.TotalAlloc
}

// TestDirectiveCannotExhaustHost: a size directive that would take the image
// past maxImageBytes is refused in pass 1, before anything is allocated.
// ".data\n.space 0x100000000" used to return a 4 GiB image after 14 s.
func TestDirectiveCannotExhaustHost(t *testing.T) {
	for _, src := range append(hostileSources[:2:2],
		".zero 0x7fffffffffffffff\n.zero 0x7fffffffffffffff\n.zero 2", // the sum wraps uint64
		".data\n.skip 0x8000000\n.text\n.skip 0x8000001",              // 128 MiB + 128 MiB + 1
	) {
		var err error
		elapsed, alloc := measured(func() { _, err = Assemble(src) })
		if err == nil {
			t.Errorf("Assemble(%q) succeeded, want an image-size error", src)
		}
		if elapsed > 100*time.Millisecond || alloc > 64<<20 {
			t.Errorf("Assemble(%q) took %v and allocated %d MiB refusing it", src, elapsed, alloc>>20)
		}
	}
	if _, err := Assemble(".data\n.space 0x100000\n.align 12\n.zero 128"); err != nil {
		t.Errorf("a 1 MiB image was refused: %v", err)
	}
	// A size is the value pass 1 read and bounded: a .set redefined further
	// down cannot grow it (or make it negative) in pass 2.
	for _, src := range hostileSources[3:5] {
		var p *Program
		var err error
		_, alloc := measured(func() { p, err = Assemble(src) })
		if err != nil || len(p.Data) != 8 || alloc > 1<<20 {
			t.Errorf("Assemble(%q): err = %v, allocated %d KiB; want 8 bytes of data", src, err, alloc>>10)
		}
	}
	// And a statement whose length a later .set changes is refused, not
	// emitted over the labels behind it.
	if _, err := Assemble(".set N, 1\nli a0, N\nj end\nend:\n.set N, 0x123456789"); err == nil {
		t.Error("li of a constant redefined to a longer one was accepted")
	}
}

// textHasData reports whether any data-emitting directive of src lands in
// the text section, where its bytes need not be instructions.
func textHasData(src string) bool {
	items, _ := parseLines(src)
	inText := true
	for _, it := range items {
		switch it.name {
		case ".text":
			inText = true
		case ".data", ".bss", ".rodata", ".section":
			inText = false
		case ".global", ".globl", ".option", ".attribute", ".type", ".size", ".p2align", ".equ", ".set":
		default:
			if inText && strings.HasPrefix(it.name, ".") {
				return true
			}
		}
	}
	return false
}

// checkAssemble is FuzzAssemble's property: any source is an error or a
// program, never a panic, a hang or an allocation out of proportion to the
// image; and a program's text, unless a data directive wrote into it, is
// made of words Decode accepts.
func checkAssemble(t testing.TB, src string) {
	var p *Program
	var err error
	elapsed, alloc := measured(func() { p, err = Assemble(src) })
	if elapsed > 2*time.Second || alloc > maxImageBytes+64<<20 {
		t.Fatalf("%q took %v and allocated %d MiB", src, elapsed, alloc>>20)
	}
	if err != nil || textHasData(src) {
		return
	}
	for off := 0; off+4 <= len(p.Text); off += 4 {
		w := binary.LittleEndian.Uint32(p.Text[off:])
		if _, err := riscv.Decode(w); err != nil {
			t.Fatalf("%q: text word %d = %#08x does not decode: %v", src, off/4, w, err)
		}
	}
}

func FuzzAssemble(f *testing.F) {
	for _, name := range kernels.Names() {
		k, err := kernels.Get(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(k.Source)
	}
	for _, src := range hostileSources {
		f.Add(src)
	}
	// The sources the package's hand-written tests assemble — the syntax the
	// assembler is known to care about — each checked here once, and joined
	// into one seed for the mutator to cut from.
	snippets := []string{basicSrc, loadStoreSrc, branchSrc, laSrc, dataSrc, equSrc, vectorSrc, csrSrc, amoSrc, entrySrc}
	snippets = append(snippets, errorSources...)
	snippets = append(snippets, fpSources...)
	snippets = append(snippets, pseudoCountErrors...)
	for _, c := range rangeCases {
		snippets = append(snippets, c.src)
	}
	for _, c := range pseudoCases {
		snippets = append(snippets, c.src)
	}
	for _, src := range snippets {
		checkAssemble(f, src)
	}
	f.Add(strings.Join(snippets, "\n"))
	f.Fuzz(func(t *testing.T, src string) { checkAssemble(t, src) })
}
