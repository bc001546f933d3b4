package core

import (
	"strings"
	"testing"

	"github.com/coyote-sim/coyote/internal/riscv"
	"github.com/coyote-sim/coyote/internal/san"
)

// patchProg has hart 0 overwrite the instruction at "patch" (addi a1,
// zero, 1) with the word at "newinsn", publish a flag, and every hart then
// run through the patched instruction and store a1. SYNC is fence.i or nop.
const patchProg = `
_start:
	csrr t0, mhartid
	la   s0, flag
	la   s1, patch
	bnez t0, wait
	la   t1, newinsn
	lw   t2, 0(t1)
	sw   t2, 0(s1)
	SYNC
	li   t3, 1
	sd   t3, 0(s0)
	j    patch
wait:
	ld   t3, 0(s0)
	beqz t3, wait
	SYNC
	j    patch
	nop
patch:
	addi a1, zero, 1
	la   t4, out
	slli t5, t0, 3
	add  t4, t4, t5
	sd   a1, 0(t4)
` + exitAsm + `
.data
flag:    .dword 0
newinsn: .dword 0
out:     .zero 128
`

// runPatched runs src on 16 harts with newinsn's encoding at the data
// symbol of that name, and returns what each hart stored at "out".
func runPatched(t *testing.T, src string, newinsn riscv.Instr, mut func(*Config)) (out [16]uint64, res *Result) {
	t.Helper()
	s := newSystem(t, 16, mut)
	s.LoadProgram(mustAsm(t, src))
	s.Mem.Write32(s.MustSymbol("newinsn"), riscv.MustEncode(newinsn))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		out[i] = s.Mem.Read64(s.MustSymbol("out") + uint64(i)*8)
	}
	return out, res
}

func runPatch(t *testing.T, sync string, workers int) ([16]uint64, *Result) {
	t.Helper()
	return runPatched(t, strings.ReplaceAll(patchProg, "SYNC", sync),
		riscv.Instr{Op: riscv.OpADDI, Rd: 11, Imm: 77, VM: true},
		func(c *Config) { c.Workers = workers })
}

// TestFenceIReachesEveryHart: the text image is one per System, so the
// fence.i that follows a store into text shows the new instruction to
// every hart — and, being the one thing that rewrites the image during a
// run, it does so on the serial path: four workers (16 harts, under
// -race in CI) reach the cycle count one does.
func TestFenceIReachesEveryHart(t *testing.T) {
	seqOut, seq := runPatch(t, "fence.i", 1)
	parOut, par := runPatch(t, "fence.i", 4)
	for i, v := range seqOut {
		if v != 77 {
			t.Errorf("hart %d executed the old instruction after fence.i: a1 = %d, want 77", i, v)
		}
	}
	if parOut != seqOut || par.Cycles != seq.Cycles || par.Instructions != seq.Instructions {
		t.Errorf("workers=4: out %v, %d cycles, %d instr; workers=1: out %v, %d cycles, %d instr",
			parOut, par.Cycles, par.Instructions, seqOut, seq.Cycles, seq.Instructions)
	}
	if par.Par.Unsafe == 0 {
		t.Error("workers=4 never took fence.i to the serial path")
	}
}

// raceProg has hart 0 patch an instruction the other harts are looping
// over (addi a1, a1, 1 becomes addi a1, a1, 100) and fence.i: what each
// looping hart has summed at the end says on which cycle it first fetched
// the new decode.
const raceProg = `
_start:
	csrr t0, mhartid
	la   s1, patch
	li   t6, 4000
	bnez t0, patch
	la   t1, newinsn
	lw   t2, 0(t1)
	li   t3, 1000
delay:
	addi t3, t3, -1
	bnez t3, delay
	sw   t2, 0(s1)
	fence.i
	j    done
patch:
	addi a1, a1, 1
	addi t6, t6, -1
	bnez t6, patch
done:
	la   t4, out
	slli t5, t0, 3
	add  t4, t4, t5
	sd   a1, 0(t4)
` + exitAsm + `
.data
newinsn: .dword 0
out:     .zero 128
`

// TestFenceIInvalidatesSameCycleSpeculation: harts that speculated through
// the old decode in the cycle a lower-numbered hart executes fence.i run
// again, as they would have run after it one at a time.
func TestFenceIInvalidatesSameCycleSpeculation(t *testing.T) {
	if san.Enabled {
		t.Skip("the program executes a patched instruction before fence.i, which coyotesan reports")
	}
	run := func(workers int) ([16]uint64, uint64) {
		out, res := runPatched(t, raceProg,
			riscv.Instr{Op: riscv.OpADDI, Rd: 11, Rs1: 11, Imm: 100, VM: true},
			func(c *Config) { c.Workers, c.InterleaveQuantum = workers, 8 })
		return out, res.Cycles
	}
	seqOut, seqCycles := run(1)
	if seqOut[1] < 4000+99*100 || seqOut[1] > 4000*100-99*100 {
		t.Fatalf("hart 1 summed %d: the patch must land well inside its loop", seqOut[1])
	}
	if parOut, parCycles := run(4); parOut != seqOut || parCycles != seqCycles {
		t.Errorf("workers=4: %v in %d cycles\nworkers=1: %v in %d cycles", parOut, parCycles, seqOut, seqCycles)
	}
}

// TestRacyFenceIMatchesReference: the looping harts of raceProg are not
// synchronised with hart 0's fence.i, so the cycle on which each first
// fetches the new decode shows in its sum. An image that holds a fence.i
// allows no look-ahead: at InterleaveQuantum 1 the block engine must reach
// the sums and the cycle count of the reference engine ticked a cycle at a
// time. (A hart allowed to run ahead through the loop would have executed
// the old addi on cycles past the fence.i.)
func TestRacyFenceIMatchesReference(t *testing.T) {
	if san.Enabled {
		t.Skip("the program executes a patched instruction before fence.i, which coyotesan reports")
	}
	patched := riscv.Instr{Op: riscv.OpADDI, Rd: 11, Rs1: 11, Imm: 100, VM: true}
	run := func(ref bool) (out [16]uint64, res *Result) {
		s := newSystem(t, 16, func(c *Config) { c.Hart.DisableBlockCache = ref })
		s.LoadProgram(mustAsm(t, raceProg))
		s.Mem.Write32(s.MustSymbol("newinsn"), riscv.MustEncode(patched))
		if ref {
			res = runTicking(t, s)
		} else {
			var err error
			if res, err = s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for i := range out {
			out[i] = s.Mem.Read64(s.MustSymbol("out") + uint64(i)*8)
		}
		return out, res
	}
	refOut, ref := run(true)
	if refOut[1] < 4000+99*100 || refOut[1] > 4000*100-99*100 {
		t.Fatalf("hart 1 summed %d: the patch must land well inside its loop", refOut[1])
	}
	out, res := run(false)
	if out != refOut || res.Cycles != ref.Cycles {
		t.Errorf("block engine: %v in %d cycles\nreference:    %v in %d cycles", out, res.Cycles, refOut, ref.Cycles)
	}
	if res.Host.LookaheadInstr != 0 {
		t.Errorf("%d instructions ran ahead of the clock in an image that holds a fence.i", res.Host.LookaheadInstr)
	}
}

// TestStoreToTextWithoutFenceI: nothing but fence.i touches the image, so
// without one every hart goes on executing the old decode. coyotesan
// reports that as cpu.selfmod at the stale fetch.
func TestStoreToTextWithoutFenceI(t *testing.T) {
	if san.Enabled {
		defer func() {
			v, ok := recover().(san.Violation)
			if !ok || !strings.Contains(v.Error(), "cpu.selfmod") {
				t.Fatalf("want a cpu.selfmod violation, got %v", v)
			}
		}()
	}
	out, _ := runPatch(t, "nop", 1)
	if san.Enabled {
		t.Fatal("a stale instruction executed under coyotesan without a report")
	}
	for i, v := range out {
		if v != 1 {
			t.Errorf("hart %d: a1 = %d, want 1 (the image still holds the old instruction)", i, v)
		}
	}
}

// lmulProg leaves v6 pending on a load miss under m1, switches the odd
// harts to m4, and has every hart execute the same vadd.vv v4 from the
// shared image on the same cycle. At m1 it writes v4 and goes ahead; at m4
// it writes v4–v7 and must wait for v6.
const lmulProg = `
_start:
	csrr t0, mhartid
	la   a0, buf
	slli t1, t0, 6
	add  a0, a0, t1
	li   t2, 4
	vsetvli t3, t2, e64, m1, ta, ma
	vle64.v v6, (a0)
	andi t1, t0, 1
	beqz t1, body
	vsetvli t3, t2, e64, m4, ta, ma
body:
	vadd.vv v4, v12, v12
` + exitAsm + `
.data
buf: .zero 1024
`

// TestSharedImageHonoursEachHartsLMUL: one image element serves harts at
// different LMULs at once, each stalling on its own register groups.
func TestSharedImageHonoursEachHartsLMUL(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := newSystem(t, 16, func(c *Config) { c.Workers = workers })
		s.LoadProgram(mustAsm(t, lmulProg))
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range res.HartStats {
			if stalled := h.StallsRAW > 0; stalled != (i%2 == 1) {
				t.Errorf("workers=%d hart %d (m%d): %d RAW stall cycles", workers, i, 1+3*(i%2), h.StallsRAW)
			}
		}
	}
}
