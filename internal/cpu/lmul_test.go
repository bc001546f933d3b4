package cpu

// Tests for LMUL > 1 register grouping: loads, arithmetic and stores over
// register groups, plus the dependency masks they imply.

import (
	"testing"

	"github.com/coyote-sim/coyote/internal/riscv"
)

func TestLMUL4LoadComputeStore(t *testing.T) {
	h := newTestHart(t)
	vlmax1 := uint64(h.VLenB) * 8 / 64 // elements per single register
	n := 4 * vlmax1                    // exactly one m4 group
	for i := uint64(0); i < n; i++ {
		h.Mem.Write64(0x10000+i*8, i+1)
	}
	h.X[10] = n
	h.X[11] = 0x10000
	h.X[13] = 0x20000
	load(t, h,
		vsetvli(5, 10, 64, 4),
		riscv.Instr{Op: riscv.OpVLE64, Rd: 4, Rs1: 11, VM: true},         // v4-v7
		riscv.Instr{Op: riscv.OpVADDVI, Rd: 8, Rs2: 4, Imm: 7, VM: true}, // v8-v11
		riscv.Instr{Op: riscv.OpVSE64, Rd: 8, Rs1: 13, VM: true},
	)
	run(t, h, 100)
	if h.VL != n {
		t.Fatalf("vl = %d, want %d", h.VL, n)
	}
	for i := uint64(0); i < n; i++ {
		if got := h.Mem.Read64(0x20000 + i*8); got != i+8 {
			t.Fatalf("elem %d = %d, want %d", i, got, i+8)
		}
	}
}

func TestLMULGroupSpansRegisters(t *testing.T) {
	h := newTestHart(t)
	vlmax1 := uint64(h.VLenB) * 8 / 64
	h.X[10] = 2 * vlmax1
	load(t, h,
		vsetvli(5, 10, 64, 2),
		riscv.Instr{Op: riscv.OpVIDV, Rd: 2, VM: true}, // v2-v3 group
	)
	run(t, h, 50)
	// Element vlmax1 lives in v3 (the second register of the group).
	if got := h.vGetInt(3, 0, 64); got != vlmax1 {
		t.Errorf("first element of v3 = %d, want %d", got, vlmax1)
	}
}

func TestLMULRegUsageGroups(t *testing.T) {
	in := riscv.Instr{Op: riscv.OpVADDVV, Rd: 4, Rs1: 8, Rs2: 12, VM: true}
	use := riscv.RegUsage(in, 4)
	wantWrites := uint32(0xf << 4)        // v4-v7
	wantReads := uint32(0xf<<8 | 0xf<<12) // v8-v11, v12-v15
	if use.WritesV != wantWrites {
		t.Errorf("WritesV = %#x, want %#x", use.WritesV, wantWrites)
	}
	if use.ReadsV != wantReads {
		t.Errorf("ReadsV = %#x, want %#x", use.ReadsV, wantReads)
	}
}

func TestMaskedOpReadsV0(t *testing.T) {
	in := riscv.Instr{Op: riscv.OpVADDVV, Rd: 4, Rs1: 8, Rs2: 12, VM: false}
	use := riscv.RegUsage(in, 1)
	if use.ReadsV&1 == 0 {
		t.Error("masked op must read v0")
	}
}

func TestLMULChangeRefreshesStepCache(t *testing.T) {
	// The text image holds register-usage masks per LMUL; executing the
	// same instruction after a vsetvli with a different LMUL must pick
	// that LMUL's group masks. Run the same vadd at LMUL 1 then 4.
	h := newTestHart(t)
	h.X[10] = 4
	h.X[12] = 1 << 20
	load(t, h,
		// pass 1: lmul=1
		vsetvli(5, 10, 64, 1),
		riscv.Instr{Op: riscv.OpVADDVV, Rd: 8, Rs1: 4, Rs2: 4, VM: true},
		// pass 2: lmul=4, the same encoding after changing vtype.
		vsetvli(5, 12, 64, 4),
		riscv.Instr{Op: riscv.OpVADDVV, Rd: 8, Rs1: 4, Rs2: 4, VM: true},
	)
	run(t, h, 100)
	if h.VType.LMUL != 4 {
		t.Errorf("lmul = %d", h.VType.LMUL)
	}
}

func TestVectorLoadMissMarksWholeGroupBase(t *testing.T) {
	h := newTestHart(t)
	vlmax1 := uint64(h.VLenB) * 8 / 64
	h.X[10] = 4 * vlmax1
	h.X[11] = 0x100000
	load(t, h,
		vsetvli(5, 10, 64, 4),
		riscv.Instr{Op: riscv.OpVLE64, Rd: 8, Rs1: 11, VM: true},
		riscv.Instr{Op: riscv.OpVMVXS, Rd: 6, Rs2: 8, VM: true}, // reads the group base
	)
	// Drive manually: the vle64 misses several lines; the vmv.x.s must
	// stall until every fill lands.
	var pendingFills []MemEvent
	sawStall := false
	for i := 0; i < 200 && !h.Halted; i++ {
		res := h.Step(uint64(i))
		for _, ev := range h.DrainEvents() {
			switch {
			case ev.Fetch:
				h.CompleteFetch()
			case ev.HasDest:
				pendingFills = append(pendingFills, ev)
			}
		}
		if res == StepStalledRAW {
			sawStall = true
			// Service exactly one fill per stalled cycle to stretch the
			// dependency window.
			if len(pendingFills) > 0 {
				h.CompleteFill(pendingFills[0].Dest, pendingFills[0].DestReg)
				pendingFills = pendingFills[1:]
			}
		}
		if res == StepFault {
			t.Fatal(h.Fault)
		}
	}
	if !sawStall {
		t.Error("group-consuming instruction never stalled on the load")
	}
	if !h.Halted {
		t.Fatal("program did not finish")
	}
}
