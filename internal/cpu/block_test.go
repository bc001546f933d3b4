package cpu

import (
	"testing"

	"github.com/coyote-sim/coyote/internal/mem"
	"github.com/coyote-sim/coyote/internal/riscv"
	"github.com/coyote-sim/coyote/internal/san"
)

// newTestHartCfg builds a hart over fresh memory with a mutated config.
func newTestHartCfg(t *testing.T, mutate func(*Config)) *Hart {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := NewHart(0, cfg, mem.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h.PC = textBase
	return h
}

// runBlock drives a hart through StepBlock until halt or fault, servicing
// misses instantly — the superblock analogue of run().
func runBlock(t *testing.T, h *Hart, maxCycles int) {
	t.Helper()
	for cyc := 0; cyc < maxCycles; cyc++ {
		_, res := h.StepBlock(uint64(cyc), 32)
		for _, ev := range h.DrainEvents() {
			if ev.Fetch {
				h.CompleteFetch()
			} else if ev.HasDest {
				h.CompleteFill(ev.Dest, ev.DestReg)
			}
		}
		if res == StepFault {
			t.Fatalf("fault: %v", h.Fault)
		}
		if h.Halted {
			return
		}
	}
	t.Fatalf("program did not halt in %d cycles (pc=%#x)", maxCycles, h.PC)
}

// loopProg is a small counted loop: straight-line arithmetic bodies glued
// by a backward bne, the shape superblocks exist for.
func loopProg() []riscv.Instr {
	return []riscv.Instr{
		ins(riscv.OpADDI, 5, 0, 0, 8),  // pc+0:  t0 = 8 (counter)
		ins(riscv.OpADDI, 6, 0, 0, 0),  // pc+4:  t1 = 0 (acc)
		ins(riscv.OpADDI, 6, 6, 0, 3),  // pc+8:  loop: t1 += 3
		ins(riscv.OpADDI, 7, 6, 0, 1),  // pc+12: t2 = t1 + 1
		ins(riscv.OpSUB, 28, 7, 6, 0),  // pc+16: t3 = t2 - t1
		ins(riscv.OpADDI, 5, 5, 0, -1), // pc+20: t0--
		ins(riscv.OpBNE, 0, 5, 0, -16), // pc+24: bne t0, x0, loop
	}
}

// TestStepBlockMatchesReference pins the superblock engine against the
// per-instruction reference engine (DisableBlockCache): identical retired
// counts and identical architectural state on a branchy program. The
// cycle-exact equivalence under the orchestrator is pinned by the root
// package's TestWorkersInterleaveMatrix golden test.
func TestStepBlockMatchesReference(t *testing.T) {
	blockH := newTestHartCfg(t, nil)
	refH := newTestHartCfg(t, func(c *Config) { c.DisableBlockCache = true })
	if !blockH.BlockEngineEnabled() || refH.BlockEngineEnabled() {
		t.Fatal("DisableBlockCache did not select the engines")
	}
	load(t, blockH, loopProg()...)
	load(t, refH, loopProg()...)
	runBlock(t, blockH, 1000)
	runBlock(t, refH, 1000)

	if blockH.X != refH.X {
		t.Errorf("scalar registers diverge:\nblock %v\nref   %v", blockH.X, refH.X)
	}
	if blockH.Stats.Instret != refH.Stats.Instret {
		t.Errorf("instret: block %d, ref %d", blockH.Stats.Instret, refH.Stats.Instret)
	}
	if want := uint64(24); blockH.X[6] != want {
		t.Errorf("t1 = %d, want %d", blockH.X[6], want)
	}
}

// TestStepBlockBranchIntoMiddle forces a branch into the middle of a
// superblock. The block at the program entry spans the loop body; the
// backward branch targets an interior PC, which must take the suffix
// block starting there — never re-execute the prefix, never miss
// instructions.
func TestStepBlockBranchIntoMiddle(t *testing.T) {
	prog := []riscv.Instr{
		ins(riscv.OpADDI, 5, 0, 0, 3),  // pc+0:  t0 = 3 (counter)
		ins(riscv.OpADDI, 6, 0, 0, 0),  // pc+4:  t1 = 0
		ins(riscv.OpADDI, 6, 6, 0, 1),  // pc+8:  loop: t1++   <- interior entry
		ins(riscv.OpADDI, 7, 7, 0, 2),  // pc+12: t2 += 2
		ins(riscv.OpADDI, 5, 5, 0, -1), // pc+16: t0--
		ins(riscv.OpBNE, 0, 5, 0, -12), // pc+20: bne t0, x0, loop
	}
	h := newTestHartCfg(t, nil)
	load(t, h, prog...)
	runBlock(t, h, 1000)

	// The entry block must span past the branch target, proving the loop
	// re-entered a superblock mid-body rather than at its head.
	if i := h.text.slot(textBase); i != 0 || h.text.code[0].run != 6 || h.text.code[2].run != 4 {
		t.Fatalf("entry superblock not imaged as expected: slot %d, run %d at entry, %d at the branch target",
			i, h.text.code[0].run, h.text.code[2].run)
	}
	if h.X[6] != 3 || h.X[7] != 6 {
		t.Errorf("t1 = %d, t2 = %d, want 3, 6", h.X[6], h.X[7])
	}

	ref := newTestHartCfg(t, func(c *Config) { c.DisableBlockCache = true })
	load(t, ref, prog...)
	runBlock(t, ref, 1000)
	if h.X != ref.X {
		t.Errorf("scalar registers diverge from reference:\nblock %v\nref   %v", h.X, ref.X)
	}
}

// outcome is what a differential case compares across engines.
type outcome struct {
	x       [32]uint64
	pc      uint64
	instret uint64
	halted  bool
	fault   string
	l1i     [2]uint64 // hits, misses
}

// runOutcome drives h through StepBlock until it halts or faults.
func runOutcome(t *testing.T, h *Hart) outcome {
	t.Helper()
	for cyc := uint64(0); !h.Halted; cyc++ {
		if cyc == 10000 {
			t.Fatalf("program did not halt (pc=%#x)", h.PC)
		}
		h.StepBlock(cyc, 32)
		for _, ev := range h.DrainEvents() {
			if ev.Fetch {
				h.CompleteFetch()
			} else if ev.HasDest {
				h.CompleteFill(ev.Dest, ev.DestReg)
			}
		}
	}
	o := outcome{x: h.X, pc: h.PC, instret: h.Stats.Instret, halted: h.Halted,
		l1i: [2]uint64{h.L1I.Stats.Hits, h.L1I.Stats.Misses}}
	if h.Fault != nil {
		o.fault = h.Fault.Error()
	}
	return o
}

// TestImageEdgesMatchReference runs programs that leave the straight and
// narrow on three harts — block engine over an image of the whole
// program, block engine over an image of its first two instructions only
// (every later fetch decodes from memory), per-instruction reference
// engine — and requires one outcome: registers, PC, instruction and L1I
// counts, and the fault text, all of which are what the per-hart decode
// caches produced at commit 2a94938.
func TestImageEdgesMatchReference(t *testing.T) {
	bad := uint32(0xffffffff)
	for _, tc := range []struct {
		name  string
		prog  []riscv.Instr
		poke  map[uint64]uint32 // raw words written over the program
		fault string
		want  map[uint8]uint64
	}{
		{name: "jump-into-the-middle-of-a-run", prog: []riscv.Instr{
			ins(riscv.OpADDI, 5, 0, 0, 3),  // pc+0:  t0 = 3
			ins(riscv.OpADDI, 6, 0, 0, 0),  // pc+4:  t1 = 0
			ins(riscv.OpADDI, 6, 6, 0, 1),  // pc+8:  loop: t1++   <- interior entry
			ins(riscv.OpADDI, 7, 7, 0, 2),  // pc+12: t2 += 2
			ins(riscv.OpADDI, 5, 5, 0, -1), // pc+16: t0--
			ins(riscv.OpBNE, 0, 5, 0, -12), // pc+20: bne t0, x0, loop
		}, want: map[uint8]uint64{6: 3, 7: 6}},
		{name: "jump-past-the-end-of-text", prog: []riscv.Instr{
			ins(riscv.OpADDI, 5, 0, 0, 1),   // pc+0
			ins(riscv.OpJAL, 0, 0, 0, 0x40), // pc+4: over the ebreak, into poked code
		}, poke: map[uint64]uint32{
			0x44: riscv.MustEncode(ins(riscv.OpADDI, 6, 5, 0, 41)),
			0x48: riscv.MustEncode(ins(riscv.OpJAL, 0, 0, 0, -0x48+8)), // back to the ebreak
		}, want: map[uint8]uint64{5: 1, 6: 42}},
		{name: "undecodable-word-in-a-run", prog: []riscv.Instr{
			ins(riscv.OpADDI, 5, 0, 0, 1),
			ins(riscv.OpADDI, 6, 0, 0, 2),
			ins(riscv.OpADDI, 7, 0, 0, 3), // overwritten
			ins(riscv.OpADDI, 28, 0, 0, 4),
		}, poke: map[uint64]uint32{8: bad},
			fault: "hart 0: pc=0x80000008: riscv: cannot decode 0xffffffff",
			want:  map[uint8]uint64{5: 1, 6: 2, 7: 0, 28: 0}},
		{name: "jump-into-data", prog: []riscv.Instr{
			ins(riscv.OpADDI, 5, 0, 0, 1),
			ins(riscv.OpJAL, 0, 0, 0, 0x1000), // memory never written: zero words
		}, fault: "hart 0: pc=0x80001004: riscv: cannot decode 0x00000000",
			want: map[uint8]uint64{5: 1}},
		{name: "jump-off-a-word-boundary", prog: []riscv.Instr{
			ins(riscv.OpADDI, 5, 0, 0, 1),
			ins(riscv.OpJAL, 0, 0, 0, 6), // pc+10: the halves of two instructions
			ins(riscv.OpADDI, 6, 0, 0, 2),
			ins(riscv.OpADDI, 7, 0, 0, 3),
		}, poke: map[uint64]uint32{8: bad, 12: bad},
			fault: "hart 0: pc=0x8000000a: riscv: cannot decode 0xffffffff",
			want:  map[uint8]uint64{5: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got [3]outcome
			for i, mutate := range []func(*Config){nil, nil, func(c *Config) { c.DisableBlockCache = true }} {
				h := newTestHartCfg(t, mutate)
				load(t, h, tc.prog...)
				for off, raw := range tc.poke {
					h.Mem.Write32(textBase+off, raw)
				}
				if i == 1 {
					h.SetText(NewText(h.Mem, textBase, 2))
				}
				got[i] = runOutcome(t, h)
			}
			if got[1] != got[0] || got[2] != got[0] {
				t.Errorf("engines disagree:\nwhole image %+v\ntwo-word image %+v\nreference %+v", got[0], got[1], got[2])
			}
			if got[0].fault != tc.fault {
				t.Errorf("fault %q, want %q", got[0].fault, tc.fault)
			}
			for r, v := range tc.want {
				if got[0].x[r] != v {
					t.Errorf("x%d = %d, want %d", r, got[0].x[r], v)
				}
			}
		})
	}
}

// TestImageCarriesEveryLMUL: a vector op's element holds its footprint at
// each LMUL, so no hart ever rewrites the element for its own vtype.
func TestImageCarriesEveryLMUL(t *testing.T) {
	h := newTestHartCfg(t, nil)
	in := riscv.Instr{Op: riscv.OpVADDVV, Rd: 8, Rs1: 16, Rs2: 24, VM: true}
	load(t, h, in)
	txt := NewText(h.Mem, textBase, 1)
	for _, lmul := range []uint{0, 1, 2, 4, 8} {
		got := txt.vuse[txt.code[0].vuse+lmulIndex(lmul)]
		if want := riscv.RegUsage(in, lmul); got != want {
			t.Errorf("LMUL %d: footprint %+v, want %+v", lmul, got, want)
		}
	}
}

// selfModProg stores a patched instruction word over pc+16 and then falls
// through to it. X[10] holds the patch address, X[11] the new word. With
// fencei the text image is decoded again between the store and the fetch;
// without it the image still holds the stale word.
func selfModProg(fencei bool) []riscv.Instr {
	prog := []riscv.Instr{
		ins(riscv.OpSW, 0, 10, 11, 0),  // pc+0:  patch [a0] = a1
		ins(riscv.OpADDI, 6, 0, 0, 5),  // pc+4:  t1 = 5 (or fence.i)
		ins(riscv.OpADDI, 28, 0, 0, 6), // pc+8: t3 = 6
		ins(riscv.OpADDI, 29, 0, 0, 7), // pc+12: t4 = 7
		ins(riscv.OpADDI, 7, 0, 0, 1),  // pc+16: t2 = 1 (patched to 77)
	}
	if fencei {
		prog[1] = riscv.Instr{Op: riscv.OpFENCEI, VM: true}
	}
	return prog
}

func setupSelfMod(t *testing.T, h *Hart, fencei bool) {
	t.Helper()
	load(t, h, selfModProg(fencei)...)
	h.X[10] = textBase + 16
	h.X[11] = uint64(riscv.MustEncode(ins(riscv.OpADDI, 7, 0, 0, 77)))
}

// TestFenceIRevealsPatchedCode pins the fence.i contract on both engines:
// after the store and the fence, the patched instruction must execute.
func TestFenceIRevealsPatchedCode(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
	}{
		{"block-engine", nil},
		{"reference-engine", func(c *Config) { c.DisableBlockCache = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newTestHartCfg(t, tc.cfg)
			setupSelfMod(t, h, true)
			runBlock(t, h, 1000)
			if h.X[7] != 77 {
				t.Errorf("t2 = %d, want 77 (patched instruction after fence.i)", h.X[7])
			}
		})
	}
}

// TestStaleBlockWithoutFenceI documents the hazard fence.i exists for:
// without it, the image keeps its pre-store decode and the stale
// instruction executes. The coyotesan build turns exactly this into a
// panic (TestSanStoreToLiveBlock), so it is skipped there.
func TestStaleBlockWithoutFenceI(t *testing.T) {
	if san.Enabled {
		t.Skip("coyotesan promotes the stale-code hazard to a panic")
	}
	h := newTestHartCfg(t, nil)
	setupSelfMod(t, h, false)
	runBlock(t, h, 1000)
	if h.X[7] != 1 {
		t.Errorf("t2 = %d, want 1 (stale decode without fence.i)", h.X[7])
	}
}

// TestSanStoreToLiveBlock pins the sanitizer check: under -tags coyotesan
// executing an instruction that a store changed since the image was
// decoded must panic with a san.Violation.
func TestSanStoreToLiveBlock(t *testing.T) {
	if !san.Enabled {
		t.Skip("needs -tags coyotesan")
	}
	h := newTestHartCfg(t, nil)
	setupSelfMod(t, h, false)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("executing a stale decode did not panic")
		}
		if _, ok := r.(san.Violation); !ok {
			panic(r)
		}
	}()
	runBlock(t, h, 1000)
}

// TestStepBlockAllocFree asserts the steady-state hot loop allocates
// nothing: the //coyote:allocfree contract, enforced dynamically.
func TestStepBlockAllocFree(t *testing.T) {
	if san.Enabled {
		t.Skip("sanitizer shadow state allocates by design")
	}
	h := newTestHartCfg(t, nil)
	load(t, h, loopForever()...)
	cyc := uint64(0)
	step := func() {
		_, res := h.StepBlock(cyc, 32)
		cyc++
		for _, ev := range h.DrainEvents() {
			if ev.Fetch {
				h.CompleteFetch()
			}
		}
		if res == StepFault {
			t.Fatalf("fault: %v", h.Fault)
		}
	}
	for i := 0; i < 100; i++ { // warm caches, build blocks, touch pages
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("StepBlock allocated %.1f bytes-objects per call in steady state, want 0", allocs)
	}
}

// loopForever is an unbounded straight-line loop: twelve ALU instructions
// and a backward jal, for throughput and allocation measurements.
func loopForever() []riscv.Instr {
	prog := make([]riscv.Instr, 0, 13)
	for i := 0; i < 12; i++ {
		prog = append(prog, ins(riscv.OpADDI, 6, 6, 0, 1))
	}
	return append(prog, ins(riscv.OpJAL, 0, 0, 0, -48))
}

func benchHart(b *testing.B, mutate func(*Config)) *Hart {
	b.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	h, err := NewHart(0, cfg, mem.New(), nil)
	if err != nil {
		b.Fatal(err)
	}
	h.PC = textBase
	addr := uint64(textBase)
	for _, in := range loopForever() {
		h.Mem.Write32(addr, riscv.MustEncode(in))
		addr += 4
	}
	return h
}

// benchStepBlock measures instruction throughput of the given engine on
// the unbounded ALU loop, reporting retired instructions per StepBlock
// call alongside the standard ns/op.
func benchStepBlock(b *testing.B, mutate func(*Config)) {
	h := benchHart(b, mutate)
	cyc := uint64(0)
	service := func() {
		for _, ev := range h.DrainEvents() {
			if ev.Fetch {
				h.CompleteFetch()
			}
		}
	}
	for i := 0; i < 100; i++ {
		h.StepBlock(cyc, 32)
		cyc++
		service()
	}
	retired := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ := h.StepBlock(cyc, 32)
		cyc++
		retired += n
		service()
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(retired)/float64(b.N), "instr/op")
	}
	if h.Fault != nil {
		b.Fatalf("fault: %v", h.Fault)
	}
}

func BenchmarkStepBlock(b *testing.B) {
	benchStepBlock(b, nil)
}

func BenchmarkStepBlockReference(b *testing.B) {
	benchStepBlock(b, func(c *Config) { c.DisableBlockCache = true })
}
