package cpu

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"github.com/coyote-sim/coyote/internal/mem"
	"github.com/coyote-sim/coyote/internal/riscv"
	"github.com/coyote-sim/coyote/internal/san"
)

// TestRegisterOnlyClassCannotFault executes every opcode the allow-list
// names, on a bare hart: it must retire, emit no memory event, touch no
// page of memory and no CSR, leave the hart running and the core free —
// and belong to no class that reaches outside the hart. The list is what
// keeps a look-ahead from ever meeting a fault.
func TestRegisterOnlyClassCannotFault(t *testing.T) {
	outside := riscv.ClassLoad | riscv.ClassStore | riscv.ClassSystem | riscv.ClassAtomic |
		riscv.ClassVector | riscv.ClassVectorMem | riscv.ClassCSR
	listed := 0
	for op := riscv.Op(1); op.String() != "invalid"; op++ {
		if !registerOnly(op) {
			continue
		}
		listed++
		if cls := op.Classify(); cls&outside != 0 || op.IsVector() {
			t.Errorf("%v is listed register-only but has class %b", op, cls)
		}
		for _, regs := range [][3]uint8{{5, 6, 7}, {0, 0, 0}, {31, 31, 31}} {
			in := riscv.Instr{Op: op, Rd: regs[0], Rs1: regs[1], Rs2: regs[2], Rs3: regs[2], Imm: 8, VM: true}
			h, err := NewHart(0, DefaultConfig(), mem.New(), nil)
			if err != nil {
				t.Fatal(err)
			}
			h.PC = textBase
			h.X[6], h.X[7], h.X[31] = 1<<63, ^uint64(0), 0 // overflow and divide-by-zero operands
			next := h.PC + 4
			res := h.execute(in, &next, 0)
			if res != StepExecuted || h.Halted || h.Fault != nil {
				t.Errorf("%v: result %v, halted %v, fault %v", op, res, h.Halted, h.Fault)
			}
			if len(h.Events) != 0 || h.Mem.Pages() != 0 || len(h.csr) != 0 || h.busyUntil != 0 || h.PendingAny() {
				t.Errorf("%v reached outside the register files: %d events, %d pages, %d CSRs, busy until %d",
					op, len(h.Events), h.Mem.Pages(), len(h.csr), h.busyUntil)
			}
		}
	}
	if listed < 100 {
		t.Errorf("only %d opcodes listed: the op enumeration walk ended early", listed)
	}
}

// TestBlockInstrStays64Bytes: the ahead flag took a padding byte.
func TestBlockInstrStays64Bytes(t *testing.T) {
	if got := unsafe.Sizeof(blockInstr{}); got != 64 {
		t.Errorf("blockInstr is %d bytes, want 64 (one host cache line an element)", got)
	}
}

// aheadProg is a counted loop of hot and cold register-only opcodes around
// a load, a dependent use, a store and an FP chain, ten instructions that
// straddle an I-line boundary.
func aheadProg() []riscv.Instr {
	return []riscv.Instr{
		ins(riscv.OpADDI, 0, 0, 0, 0), // three nops push the loop across
		ins(riscv.OpADDI, 0, 0, 0, 0), // the first I-line boundary
		ins(riscv.OpADDI, 0, 0, 0, 0),
		ins(riscv.OpLUI, 10, 0, 0, 0x10), // a0 = 0x10000 (data)
		ins(riscv.OpADDI, 5, 0, 0, 40),   // t0 = 40 (counter)
		ins(riscv.OpADDI, 11, 0, 0, 3),   // a1 = 3
		ins(riscv.OpFCVTDL, 1, 11, 0, 0), // f1 = 3.0
		ins(riscv.OpLD, 6, 10, 0, 0),     // loop: t1 = [a0]      (misses now and then)
		ins(riscv.OpSLLI, 28, 5, 0, 2),   //       t3 = t0 << 2   (cold register-only)
		ins(riscv.OpMUL, 29, 28, 11, 0),  //       t4 = t3 * 3
		ins(riscv.OpFMADDD, 2, 1, 1, 0),  //       f2 = f1*f1 + f2 (rs3 patched below)
		ins(riscv.OpADD, 7, 6, 29, 0),    //       t2 = t1 + t4   (names the load's register)
		ins(riscv.OpSD, 0, 10, 7, 8),     //       [a0+8] = t2
		ins(riscv.OpADDI, 10, 10, 0, 72), //       a0 += 72: a new line most trips
		ins(riscv.OpAUIPC, 30, 0, 0, 0),  //       t5 = pc
		ins(riscv.OpADDI, 5, 5, 0, -1),   //       t0--
		ins(riscv.OpBNE, 0, 5, 0, -9*4),  //       bne t0, x0, loop
		ins(riscv.OpFMVXD, 12, 2, 0, 0),  // a2 = bits(f2)
	}
}

// hartShot is what TestStepAheadIsStepOnceACycle compares of a hart.
type hartShot struct {
	pc      uint64
	x       [32]uint64
	f       [32]uint64
	stats   Stats
	l1iHits uint64
}

func shot(h *Hart) hartShot {
	return hartShot{h.PC, h.X, h.F, h.Stats, h.L1I.Stats.Hits}
}

type fill struct {
	at uint64
	ev MemEvent
}

// drive runs h to its halt. visit is called at every cycle the hart is
// due with the cycle and returns how many cycles later it is due again;
// shots[c] is the hart at the start of cycle c, for the cycles it was due.
func drive(t *testing.T, h *Hart, latency uint64, visit func(now uint64) uint64) map[uint64]hartShot {
	t.Helper()
	shots := map[uint64]hartShot{}
	var fills []fill
	due := uint64(0)
	for now := uint64(0); !h.Halted; now++ {
		if now > 100000 {
			t.Fatalf("no halt after %d cycles (pc=%#x)", now, h.PC)
		}
		if now >= due {
			shots[now] = shot(h)
			due = now + visit(now)
			for _, ev := range h.DrainEvents() {
				fills = append(fills, fill{now + latency, ev})
			}
			if h.Fault != nil {
				t.Fatal(h.Fault)
			}
		}
		for len(fills) > 0 && fills[0].at <= now {
			if ev := fills[0].ev; ev.Fetch {
				h.CompleteFetch()
			} else if ev.HasDest {
				h.CompleteFill(ev.Dest, ev.DestReg)
			}
			fills = fills[1:]
		}
	}
	shots[^uint64(0)] = shot(h)
	return shots
}

// TestStepAheadIsStepOnceACycle: a hart visited through StepAhead and left
// alone until the cycle it reports is, at every one of those cycles and at
// the end, in the state of a hart stepped once every cycle — registers, PC,
// every statistic, the L1I hit count — for any limit, with fills landing
// before, while and after it runs ahead.
func TestStepAheadIsStepOnceACycle(t *testing.T) {
	build := func() *Hart {
		h := newTestHartCfg(t, nil)
		prog := aheadProg()
		prog[10].Rs3 = 2
		load(t, h, prog...)
		h.SetText(NewText(h.Mem, textBase, len(prog)+1))
		return h
	}
	for _, latency := range []uint64{1, 3, 7, 30} {
		ref := build()
		want := drive(t, ref, latency, func(now uint64) uint64 { ref.Step(now); return 1 })
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h := build()
			ahead := uint64(0)
			got := drive(t, h, latency, func(now uint64) uint64 {
				span := 1 + uint64(rng.Intn(12))
				if seed == 0 {
					span = 1 << 40
				}
				n, res := h.StepAhead(now, now+span)
				if uint64(n) > span {
					t.Fatalf("cycle %d: %d instructions retired with %d cycles to run in", now, n, span)
				}
				if res != StepExecuted {
					if n != 0 {
						t.Fatalf("cycle %d: result %v with %d retired", now, res, n)
					}
					return 1
				}
				ahead += uint64(n - 1)
				return uint64(n)
			})
			for c, g := range got {
				if w, ok := want[c]; !ok || g != w {
					t.Fatalf("latency %d seed %d: at cycle %d the hart is %+v\nstepped once a cycle it is %+v", latency, seed, c, g, w)
				}
			}
			if ahead == 0 {
				t.Errorf("latency %d seed %d: nothing ran ahead of the clock", latency, seed)
			}
		}
	}
}

// TestImageWithFenceITakesNoLookahead: in an image that holds a fence.i no
// element may be run ahead of its cycle, whether or not the fence.i is
// ever executed — another hart's could re-decode any of them.
func TestImageWithFenceITakesNoLookahead(t *testing.T) {
	for _, withFence := range []bool{false, true} {
		h := newTestHartCfg(t, nil)
		prog := []riscv.Instr{
			ins(riscv.OpADDI, 5, 0, 0, 1),
			ins(riscv.OpADDI, 5, 5, 0, 1),
			ins(riscv.OpADDI, 5, 5, 0, 1),
			ins(riscv.OpADDI, 5, 5, 0, 1),
			ins(riscv.OpJAL, 0, 0, 0, 8), // over the fence.i
			ins(riscv.OpADDI, 0, 0, 0, 0),
			ins(riscv.OpADDI, 5, 5, 0, 1),
		}
		if withFence {
			prog[5] = riscv.Instr{Op: riscv.OpFENCEI, VM: true}
		}
		load(t, h, prog...)
		h.SetText(NewText(h.Mem, textBase, len(prog)+1))
		h.StepAhead(0, 1<<40) // fetch miss
		h.DrainEvents()
		h.CompleteFetch()
		n, res := h.StepAhead(1, 1<<40)
		if res != StepExecuted {
			t.Fatal(res)
		}
		if want := map[bool]int{false: 6, true: 1}[withFence]; n != want {
			t.Errorf("fence.i in the image: %v; %d instructions retired in one visit, want %d", withFence, n, want)
		}
	}
}

// TestSanCatchesLookaheadOnBusyHart is the runtime mutation of StepAhead's
// busyUntil guard: the look-ahead loop entered behind a vector op that
// occupies the core for 8 cycles. Only coyotesan can see it — the scalar
// instructions behind retire correctly, merely 7 cycles early.
func TestSanCatchesLookaheadOnBusyHart(t *testing.T) {
	if !san.Enabled {
		t.Skip("needs -tags coyotesan")
	}
	h := newTestHartCfg(t, nil)
	load(t, h,
		ins(riscv.OpADDI, 10, 0, 0, 128),
		riscv.Instr{Op: riscv.OpVSETVLI, Rd: 5, Rs1: 10, Imm: mustVType(64, 8), VM: true},
		riscv.Instr{Op: riscv.OpVADDVV, Rd: 8, Rs1: 16, Rs2: 24, VM: true},
		ins(riscv.OpADDI, 6, 6, 0, 1),
		ins(riscv.OpADDI, 6, 6, 0, 1),
	)
	h.SetText(NewText(h.Mem, textBase, 6))
	h.StepAhead(0, 1)
	h.DrainEvents()
	h.CompleteFetch()
	now := uint64(1)
	for h.PC != textBase+8 {
		n, _ := h.StepAhead(now, now+1)
		now += uint64(n)
	}
	// The guarded entry point: the vector op retires alone.
	if n, res := h.StepAhead(now, 1<<40); n != 1 || res != StepExecuted || h.busyUntil != now+8 {
		t.Fatalf("vadd.vv: %d retired, %v, busy until %d (now %d)", n, res, h.busyUntil, now)
	}
	defer func() {
		v, ok := recover().(san.Violation)
		if !ok || !strings.Contains(v.Error(), "core.due") || !strings.Contains(v.Error(), "busy") {
			t.Fatalf("want a core.due violation naming the busy hart, got %v", v)
		}
	}()
	h.ahead(now, 1, 1<<40) // the loop without the guard
	t.Fatal("looked ahead into a vector occupancy window without a report")
}
