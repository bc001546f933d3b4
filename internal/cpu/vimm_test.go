package cpu

import (
	"testing"

	"github.com/coyote-sim/coyote/internal/asm"
)

// runAsm assembles src at textBase, runs it to its ebreak on a fresh hart
// and returns the hart.
func runAsm(t *testing.T, src string) *Hart {
	t.Helper()
	prog, err := asm.Assemble(src + "\nebreak\n")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	h := newTestHart(t)
	prog.LoadInto(h.Mem)
	h.X[10] = 1 << 20 // a0: an AVL above every VLMAX
	run(t, h, 100)
	return h
}

// TestVectorUnsignedImmediates: vsll.vi, vsrl.vi, vsra.vi and
// vslidedown.vi read their 5-bit immediate as 0…31 (RVV 1.0 §11.6, §16.3).
// Read as signed, 20 shifted a 64-bit element by 52, 31 by 63, and a slide
// by 17 moved every element out of the register.
func TestVectorUnsignedImmediates(t *testing.T) {
	h := runAsm(t, `
		vsetvli t0, a0, e64, m1
		vid.v   v2
		vadd.vi v2, v2, 1
		vsll.vi v1, v2, 20
		vmv.v.i v5, -1
		vsrl.vi v6, v5, 31
		vsra.vi v7, v5, 31
	`)
	for i := uint64(0); i < h.VL; i++ {
		if got, want := h.vGetInt(1, i, 64), (i+1)<<20; got != want {
			t.Errorf("vsll.vi 20: element %d = %#x, want %#x", i, got, want)
		}
		if got, want := h.vGetInt(6, i, 64), uint64(1)<<33-1; got != want {
			t.Errorf("vsrl.vi 31: element %d = %#x, want %#x", i, got, want)
		}
		if got, want := h.vGetInt(7, i, 64), ^uint64(0); got != want {
			t.Errorf("vsra.vi 31: element %d = %#x, want %#x", i, got, want)
		}
	}

	h = runAsm(t, `
		vsetvli t0, a0, e8, m1
		vid.v   v2
		vslidedown.vi v3, v2, 17
	`)
	if h.VL != 128 {
		t.Fatalf("vl = %d at e8/m1, want 128 (VLEN 1024)", h.VL)
	}
	for i := uint64(0); i < h.VL; i++ {
		want := i + 17
		if want >= h.VL {
			want = 0
		}
		if got := h.vGetInt(3, i, 8); got != want {
			t.Errorf("vslidedown.vi 17: element %d = %d, want %d", i, got, want)
		}
	}
}
