package cpu

import (
	"testing"

	"github.com/coyote-sim/coyote/internal/mem"
	"github.com/coyote-sim/coyote/internal/riscv"
)

const textBase = 0x80000000

// newTestHart builds a hart with small caches over fresh memory.
func newTestHart(t *testing.T) *Hart {
	t.Helper()
	m := mem.New()
	h, err := NewHart(0, DefaultConfig(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.PC = textBase
	return h
}

// load writes a program (plus a trailing ebreak) at textBase.
func load(t *testing.T, h *Hart, prog ...riscv.Instr) {
	t.Helper()
	addr := uint64(textBase)
	for _, in := range prog {
		h.Mem.Write32(addr, riscv.MustEncode(in))
		addr += 4
	}
	h.Mem.Write32(addr, riscv.MustEncode(riscv.Instr{Op: riscv.OpEBREAK, VM: true}))
}

// run steps until halt or fault, servicing misses instantly (zero-latency
// memory) so purely-functional tests are not perturbed by timing.
func run(t *testing.T, h *Hart, maxSteps int) {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		res := h.Step(uint64(i))
		for _, ev := range h.DrainEvents() {
			if ev.Fetch {
				h.CompleteFetch()
			} else if ev.HasDest {
				h.CompleteFill(ev.Dest, ev.DestReg)
			}
		}
		switch res {
		case StepHalted:
			return
		case StepFault:
			t.Fatalf("fault: %v", h.Fault)
		}
		if h.Halted {
			return
		}
	}
	t.Fatalf("program did not halt in %d steps (pc=%#x)", maxSteps, h.PC)
}

func ins(op riscv.Op, rd, rs1, rs2 uint8, imm int64) riscv.Instr {
	return riscv.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm, VM: true}
}

func TestALUBasics(t *testing.T) {
	h := newTestHart(t)
	load(t, h,
		ins(riscv.OpADDI, 5, 0, 0, 100), // t0 = 100
		ins(riscv.OpADDI, 6, 0, 0, -30), // t1 = -30
		ins(riscv.OpADD, 7, 5, 6, 0),    // t2 = 70
		ins(riscv.OpSUB, 28, 5, 6, 0),   // t3 = 130
		ins(riscv.OpSLTI, 29, 6, 0, 0),  // t4 = (-30 < 0) = 1
		ins(riscv.OpSLLI, 30, 5, 0, 3),  // t5 = 800
	)
	run(t, h, 100)
	checks := map[uint8]uint64{
		5: 100, 6: ^uint64(29), 7: 70, 28: 130, 29: 1, 30: 800,
	}
	for r, want := range checks {
		if h.X[r] != want {
			t.Errorf("x%d = %d, want %d", r, int64(h.X[r]), int64(want))
		}
	}
}

func TestX0Hardwired(t *testing.T) {
	h := newTestHart(t)
	load(t, h, ins(riscv.OpADDI, 0, 0, 0, 42))
	run(t, h, 10)
	if h.X[0] != 0 {
		t.Errorf("x0 = %d, want 0", h.X[0])
	}
}

func TestLoadStore(t *testing.T) {
	h := newTestHart(t)
	h.X[10] = 0x1000
	load(t, h,
		ins(riscv.OpADDI, 5, 0, 0, -1), // t0 = all ones
		ins(riscv.OpSD, 0, 10, 5, 0),   // [a0] = t0
		ins(riscv.OpLW, 6, 10, 0, 0),   // t1 = sext32(ffffffff) = -1
		ins(riscv.OpLWU, 7, 10, 0, 0),  // t2 = 0xffffffff
		ins(riscv.OpLB, 28, 10, 0, 0),  // -1
		ins(riscv.OpLBU, 29, 10, 0, 0), // 0xff
		ins(riscv.OpLHU, 30, 10, 0, 0), // 0xffff
	)
	run(t, h, 100)
	if h.X[6] != ^uint64(0) {
		t.Errorf("lw = %#x", h.X[6])
	}
	if h.X[7] != 0xffffffff {
		t.Errorf("lwu = %#x", h.X[7])
	}
	if h.X[28] != ^uint64(0) || h.X[29] != 0xff || h.X[30] != 0xffff {
		t.Errorf("byte/half loads wrong: %#x %#x %#x", h.X[28], h.X[29], h.X[30])
	}
}

func TestBranchesAndJumps(t *testing.T) {
	h := newTestHart(t)
	// t0=5; loop: t1+=t0; t0-=1; bne t0,zero,loop  → t1 = 15
	load(t, h,
		ins(riscv.OpADDI, 5, 0, 0, 5),
		ins(riscv.OpADD, 6, 6, 5, 0),
		ins(riscv.OpADDI, 5, 5, 0, -1),
		ins(riscv.OpBNE, 0, 5, 0, -8),
	)
	run(t, h, 100)
	if h.X[6] != 15 {
		t.Errorf("loop sum = %d, want 15", h.X[6])
	}
}

func TestJALLinkAndTarget(t *testing.T) {
	h := newTestHart(t)
	load(t, h,
		ins(riscv.OpJAL, 1, 0, 0, 8),   // jump over next instr
		ins(riscv.OpADDI, 5, 0, 0, 99), // skipped
		ins(riscv.OpADDI, 6, 0, 0, 7),
	)
	run(t, h, 10)
	if h.X[5] != 0 {
		t.Error("skipped instruction executed")
	}
	if h.X[6] != 7 {
		t.Error("jump target not executed")
	}
	if h.X[1] != textBase+4 {
		t.Errorf("link = %#x, want %#x", h.X[1], textBase+4)
	}
}

func TestMulDiv(t *testing.T) {
	h := newTestHart(t)
	h.X[10] = ^uint64(6) // -7
	h.X[11] = 3
	load(t, h,
		ins(riscv.OpMUL, 5, 10, 11, 0),   // -21
		ins(riscv.OpDIV, 6, 10, 11, 0),   // -2 (trunc)
		ins(riscv.OpREM, 7, 10, 11, 0),   // -1
		ins(riscv.OpDIVU, 28, 10, 11, 0), // huge
		ins(riscv.OpMULHU, 29, 10, 10, 0),
	)
	run(t, h, 10)
	if int64(h.X[5]) != -21 || int64(h.X[6]) != -2 || int64(h.X[7]) != -1 {
		t.Errorf("mul/div/rem = %d %d %d", int64(h.X[5]), int64(h.X[6]), int64(h.X[7]))
	}
	if h.X[28] != (^uint64(0)-6)/3 {
		t.Errorf("divu = %d", h.X[28])
	}
	// (-7 as unsigned)^2 high word: (2^64-7)^2 = 2^128 - 14*2^64 + 49
	if h.X[29] != ^uint64(0)-13 {
		t.Errorf("mulhu = %#x, want %#x", h.X[29], ^uint64(0)-13)
	}
}

func TestDivByZeroSemantics(t *testing.T) {
	h := newTestHart(t)
	h.X[10] = 42
	load(t, h,
		ins(riscv.OpDIV, 5, 10, 0, 0),
		ins(riscv.OpREM, 6, 10, 0, 0),
		ins(riscv.OpDIVU, 7, 10, 0, 0),
		ins(riscv.OpREMU, 28, 10, 0, 0),
	)
	run(t, h, 10)
	if h.X[5] != ^uint64(0) || h.X[6] != 42 || h.X[7] != ^uint64(0) || h.X[28] != 42 {
		t.Errorf("div-by-zero = %#x %d %#x %d", h.X[5], h.X[6], h.X[7], h.X[28])
	}
}

func TestWWordOps(t *testing.T) {
	h := newTestHart(t)
	h.X[10] = 0x1_0000_0001 // 33-bit value
	load(t, h,
		ins(riscv.OpADDIW, 5, 10, 0, 0), // sext32(1) = 1
		ins(riscv.OpADDW, 6, 10, 10, 0), // 2
		ins(riscv.OpSLLIW, 7, 10, 0, 31),
	)
	run(t, h, 10)
	if h.X[5] != 1 || h.X[6] != 2 {
		t.Errorf("addiw/addw = %d %d", h.X[5], h.X[6])
	}
	if h.X[7] != 0xffffffff80000000 {
		t.Errorf("slliw = %#x", h.X[7])
	}
}

func TestEcallExit(t *testing.T) {
	h := newTestHart(t)
	load(t, h,
		ins(riscv.OpADDI, riscv.RegA0, 0, 0, 3),
		ins(riscv.OpADDI, riscv.RegA7, 0, 0, SysExit),
		ins(riscv.OpECALL, 0, 0, 0, 0),
	)
	run(t, h, 10)
	if !h.Halted || h.ExitCode != 3 {
		t.Errorf("halted=%v exit=%d", h.Halted, h.ExitCode)
	}
}

func TestEcallWrite(t *testing.T) {
	h := newTestHart(t)
	msg := "hi\n"
	h.Mem.WriteBytes(0x2000, []byte(msg))
	h.X[riscv.RegA0] = 1
	h.X[riscv.RegA1] = 0x2000
	h.X[riscv.RegA2] = uint64(len(msg))
	load(t, h,
		ins(riscv.OpADDI, riscv.RegA7, 0, 0, SysWrite),
		ins(riscv.OpECALL, 0, 0, 0, 0),
	)
	run(t, h, 10)
	if got := h.Console.String(); got != msg {
		t.Errorf("console = %q, want %q", got, msg)
	}
}

func TestCSRAccess(t *testing.T) {
	h := newTestHart(t)
	h.CycleFn = func() uint64 { return 1234 }
	load(t, h,
		ins(riscv.OpCSRRS, 5, 0, 0, riscv.CSRMHartID),
		ins(riscv.OpCSRRS, 6, 0, 0, riscv.CSRCycle),
		ins(riscv.OpCSRRW, 7, 5, 0, 0x340), // mscratch: swap in hartid
		ins(riscv.OpCSRRS, 28, 0, 0, 0x340),
	)
	run(t, h, 10)
	if h.X[5] != 0 {
		t.Errorf("mhartid = %d", h.X[5])
	}
	if h.X[6] == 0 {
		t.Error("cycle CSR did not use CycleFn")
	}
	if h.X[28] != h.X[5] {
		t.Errorf("mscratch readback = %d", h.X[28])
	}
}

func TestFloatBasics(t *testing.T) {
	h := newTestHart(t)
	h.Mem.WriteFloat64(0x1000, 1.5)
	h.Mem.WriteFloat64(0x1008, 2.25)
	h.X[10] = 0x1000
	load(t, h,
		ins(riscv.OpFLD, 1, 10, 0, 0),
		ins(riscv.OpFLD, 2, 10, 0, 8),
		ins(riscv.OpFADDD, 3, 1, 2, 0),
		ins(riscv.OpFMULD, 4, 1, 2, 0),
		riscv.Instr{Op: riscv.OpFMADDD, Rd: 5, Rs1: 1, Rs2: 2, Rs3: 3, VM: true},
		ins(riscv.OpFSD, 0, 10, 3, 16),
		ins(riscv.OpFCVTWD, 5, 4, 0, 0),
	)
	run(t, h, 20)
	if got := h.Mem.ReadFloat64(0x1010); got != 3.75 {
		t.Errorf("fadd.d stored %v, want 3.75", got)
	}
	if got := h.getF64(4); got != 3.375 {
		t.Errorf("fmul.d = %v", got)
	}
	if int64(h.X[5]) != 3 { // fcvt.w.d of 3.375
		t.Errorf("fcvt.w.d = %d", int64(h.X[5]))
	}
}

func TestAMOAndLRSC(t *testing.T) {
	h := newTestHart(t)
	h.Mem.Write64(0x3000, 10)
	h.X[10] = 0x3000
	h.X[11] = 5
	load(t, h,
		ins(riscv.OpAMOADDD, 5, 10, 11, 0), // t0 = 10, mem = 15
		ins(riscv.OpLRD, 6, 10, 0, 0),      // t1 = 15, reserve
		ins(riscv.OpSCD, 7, 10, 11, 0),     // success: mem = 5, t2 = 0
		ins(riscv.OpSCD, 28, 10, 11, 0),    // fail: reservation consumed
	)
	run(t, h, 10)
	if h.X[5] != 10 || h.X[6] != 15 {
		t.Errorf("amoadd/lr = %d %d", h.X[5], h.X[6])
	}
	if h.X[7] != 0 {
		t.Errorf("sc should succeed, got %d", h.X[7])
	}
	if h.X[28] != 1 {
		t.Errorf("second sc should fail, got %d", h.X[28])
	}
	if h.Mem.Read64(0x3000) != 5 {
		t.Errorf("mem = %d", h.Mem.Read64(0x3000))
	}
}

func TestReservationBrokenByOtherHart(t *testing.T) {
	m := mem.New()
	resv := NewReservations(2)
	h0, _ := NewHart(0, DefaultConfig(), m, resv)
	h1, _ := NewHart(1, DefaultConfig(), m, resv)
	_ = h1
	resv.set(0, 0x3000&^63)
	resv.invalidateStores(1, 0x3000&^63) // hart 1 stores to the line
	if resv.check(0, 0x3000&^63) {
		t.Error("reservation should have been invalidated by other hart's store")
	}
	_ = h0
}

func TestIllegalInstructionFaults(t *testing.T) {
	h := newTestHart(t)
	h.Mem.Write32(textBase, 0xffffffff)
	if res := h.Step(0); res != StepStalledFetch {
		t.Fatalf("first step should miss L1I, got %v", res)
	}
	for _, ev := range h.DrainEvents() {
		if ev.Fetch {
			h.CompleteFetch()
		}
	}
	if res := h.Step(1); res != StepFault {
		t.Fatalf("expected fault, got %v", res)
	}
	if h.Fault == nil || !h.Halted {
		t.Error("fault state not set")
	}
}

func TestLoadMissMarksPendingAndStalls(t *testing.T) {
	h := newTestHart(t)
	h.X[10] = 0x9000
	load(t, h,
		ins(riscv.OpLD, 5, 10, 0, 0),  // miss: t0 pending
		ins(riscv.OpADDI, 6, 0, 0, 1), // independent: executes
		ins(riscv.OpADD, 7, 5, 6, 0),  // RAW on t0: stalls
	)
	// Step 0: fetch miss.
	if res := h.Step(0); res != StepStalledFetch {
		t.Fatalf("step0 = %v", res)
	}
	evs := h.DrainEvents()
	if len(evs) != 1 || !evs[0].Fetch {
		t.Fatalf("events = %+v", evs)
	}
	h.CompleteFetch()

	// Step 1: the load executes, misses, marks x5 pending.
	if res := h.Step(1); res != StepExecuted {
		t.Fatalf("step1 = %v", res)
	}
	evs = h.DrainEvents()
	if len(evs) != 1 || evs[0].HasDest == false || evs[0].DestReg != 5 {
		t.Fatalf("load miss events = %+v", evs)
	}
	if !h.Pending(RegX, 5) {
		t.Fatal("x5 should be pending")
	}
	// Functional value is already visible (execution-driven model).
	if h.X[5] != 0 {
		t.Fatalf("x5 functional value = %d", h.X[5])
	}

	// Step 2: independent instruction proceeds.
	if res := h.Step(2); res != StepExecuted {
		t.Fatalf("step2 = %v", res)
	}
	h.DrainEvents()

	// Step 3: dependent instruction stalls.
	if res := h.Step(3); res != StepStalledRAW {
		t.Fatalf("step3 = %v, want RAW stall", res)
	}
	if h.Stats.StallsRAW != 1 {
		t.Errorf("StallsRAW = %d", h.Stats.StallsRAW)
	}

	// Complete the fill: now it executes.
	h.CompleteFill(RegX, 5)
	if h.Pending(RegX, 5) {
		t.Fatal("x5 should be clear")
	}
	if res := h.Step(4); res != StepExecuted {
		t.Fatalf("step4 = %v", res)
	}
	if h.X[7] != 1 {
		t.Errorf("x7 = %d", h.X[7])
	}
}

func TestStrayCompletionPanics(t *testing.T) {
	h := newTestHart(t)
	defer func() {
		if recover() == nil {
			t.Error("stray completion should panic")
		}
	}()
	h.CompleteFill(RegX, 5)
}

func TestWritebackEventOnDirtyEviction(t *testing.T) {
	h := newTestHart(t)
	// Fill one set with dirty lines, then force an eviction.
	cfg := h.L1D.Config()
	sets := uint64(cfg.Sets())
	stride := sets * uint64(cfg.LineBytes)
	var prog []riscv.Instr
	prog = append(prog, ins(riscv.OpADDI, 10, 0, 0, 0))
	for w := 0; w <= cfg.Ways; w++ {
		prog = append(prog,
			ins(riscv.OpLUI, 11, 0, 0, int64((0x10000000+uint64(w)*stride)>>12)),
			ins(riscv.OpSD, 0, 11, 10, 0),
		)
	}
	load(t, h, prog...)
	run(t, h, 100)
	if h.Stats.Writebacks == 0 {
		t.Error("expected at least one writeback event")
	}
}

// TestMulhsuEdges pins the high-half signed×unsigned multiply at its
// sign boundaries. a = 0 is the sharp edge: the negative-operand
// correction (hi -= b) must fire for a < 0 only — pulling zero into the
// correction underflows the high half by b.
func TestMulhsuEdges(t *testing.T) {
	cases := []struct {
		a    int64
		b    uint64
		want uint64
	}{
		{0, ^uint64(0), 0},           // 0 × max: high half is 0
		{1, 1 << 63, 0},              // 2^63 fits below the high half
		{2, 1 << 63, 1},              // 2^64: exactly one high bit
		{-1, 1, ^uint64(0)},          // −1 × 1 = −1: all-ones high half
		{-1, ^uint64(0), ^uint64(0)}, // −(2^64−1): high = 0xFF…FF
	}
	for _, c := range cases {
		if got := mulhsu(c.a, c.b); got != c.want {
			t.Errorf("mulhsu(%d, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

// TestLoadToX0MissCompletes: a load whose destination is x0 (a prefetch)
// marks nothing pending, so its miss must not ask the orchestrator for a
// completion — CompleteFill panicked on the stray one.
func TestLoadToX0MissCompletes(t *testing.T) {
	h := newTestHart(t)
	h.X[10] = 0x4000
	load(t, h, ins(riscv.OpLD, 0, 10, 0, 0), ins(riscv.OpFLD, 0, 10, 0, 8))
	run(t, h, 20)
	if h.PendingAny() {
		t.Error("fills still pending after the run")
	}
}
