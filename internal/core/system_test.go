package core

import (
	"strings"
	"testing"

	"github.com/coyote-sim/coyote/internal/asm"
)

func mustAsm(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newSystem(t *testing.T, cores int, mut ...func(*Config)) *System {
	t.Helper()
	cfg := DefaultConfig(cores)
	for _, m := range mut {
		m(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const exitAsm = `
	li a7, 93
	csrr a0, mhartid
	ecall
`

func TestSingleCoreArraySum(t *testing.T) {
	s := newSystem(t, 1)
	p := mustAsm(t, `
	_start:
		la   a0, data
		la   a1, result
		li   t0, 0        # sum
		li   t1, 0        # i
		li   t2, 100      # n
	loop:
		slli t3, t1, 3
		add  t4, a0, t3
		ld   t5, 0(t4)
		add  t0, t0, t5
		addi t1, t1, 1
		blt  t1, t2, loop
		sd   t0, 0(a1)
	`+exitAsm+`
	.data
	result: .dword 0
	data:   .zero 800
	`)
	s.LoadProgram(p)
	// Fill the array: data[i] = i.
	base := s.MustSymbol("data")
	want := uint64(0)
	for i := uint64(0); i < 100; i++ {
		s.Mem.Write64(base+i*8, i)
		want += i
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Mem.Read64(s.MustSymbol("result")); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Errorf("empty result: %+v", res)
	}
	if res.IPC() <= 0 || res.IPC() > 1 {
		t.Errorf("single-core IPC = %f, want (0, 1]", res.IPC())
	}
	if res.L1D.Misses == 0 {
		t.Error("array walk should miss L1D at least once")
	}
	if res.TotalStalls() == 0 {
		t.Error("load-use dependencies should cause stalls")
	}
}

const barrierProgram = `
.equ NCORES, 4
_start:
	csrr t0, mhartid
	la   a0, slots
	slli t1, t0, 3
	add  a0, a0, t1
	addi t2, t0, 1
	sd   t2, 0(a0)          # slots[hart] = hart+1
	la   a1, barrier
	li   t3, 1
	amoadd.d zero, t3, (a1) # barrier arrive
spin:
	ld   t4, 0(a1)
	li   t5, NCORES
	blt  t4, t5, spin
	bnez t0, done           # only hart 0 sums
	la   a0, slots
	li   t6, 0
	li   s0, 0
sumloop:
	slli t1, s0, 3
	add  t2, a0, t1
	ld   t3, 0(t2)
	add  t6, t6, t3
	addi s0, s0, 1
	li   t5, NCORES
	blt  s0, t5, sumloop
	la   a1, result
	sd   t6, 0(a1)
done:
	li a7, 93
	csrr a0, mhartid
	ecall
.data
slots:   .zero 64
barrier: .dword 0
result:  .dword 0
`

func TestMulticoreBarrierAndSum(t *testing.T) {
	s := newSystem(t, 4)
	s.LoadProgram(mustAsm(t, barrierProgram))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 1+2+3+4 = 10
	if got := s.Mem.Read64(s.MustSymbol("result")); got != 10 {
		t.Errorf("barrier sum = %d, want 10", got)
	}
	for i, code := range res.ExitCodes {
		if code != uint64(i) {
			t.Errorf("hart %d exit code = %d", i, code)
		}
	}
	if res.Instructions < 4*10 {
		t.Errorf("instructions = %d", res.Instructions)
	}
}

func TestMemLatencyAffectsCycles(t *testing.T) {
	run := func(memLat uint64) uint64 {
		s := newSystem(t, 1, func(c *Config) { c.Uncore.MemLatency = memLat })
		p := mustAsm(t, `
		_start:
			la a0, data
			li t1, 0
			li t2, 64
		loop:
			slli t3, t1, 6       # stride one line: every load misses
			add  t4, a0, t3
			ld   t5, 0(t4)
			add  t6, t6, t5      # use immediately: load-use stall
			addi t1, t1, 1
			blt  t1, t2, loop
		`+exitAsm+`
		.data
		data: .zero 4096
		`)
		s.LoadProgram(p)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	fast := run(20)
	slow := run(500)
	if slow <= fast {
		t.Errorf("cycles: slow mem %d <= fast mem %d", slow, fast)
	}
	if slow < 64*400 {
		t.Errorf("slow run should be dominated by 64 misses × ~500+ cycles, got %d", slow)
	}
}

func TestConsoleOutput(t *testing.T) {
	s := newSystem(t, 1)
	s.LoadProgram(mustAsm(t, `
	_start:
		la a1, msg
		li a0, 1
		li a2, 6
		li a7, 64
		ecall
		li a7, 93
		li a0, 0
		ecall
	.data
	msg: .asciz "hello\n"
	`))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Consoles[0] != "hello\n" {
		t.Errorf("console = %q", res.Consoles[0])
	}
}

func TestCycleLimitAborts(t *testing.T) {
	for _, ref := range []bool{true, false} {
		s := newSystem(t, 1, func(c *Config) { c.MaxCycles, c.Hart.DisableBlockCache = 10000, ref })
		s.LoadProgram(mustAsm(t, "loop: j loop"))
		if _, err := s.Run(); err == nil {
			t.Fatal("runaway loop should hit the cycle limit")
		}
		// The block engine's hart runs ahead of the clock through its loop,
		// but never to the limit or past it: like the reference engine's it
		// retires one instruction a cycle from the cycle after its fetch
		// miss is serviced (which no counter is credited with), none stamped
		// 10000 or later.
		if got := s.Harts[0].Stats.Instret + s.Harts[0].Stats.StallsFetch; s.Cycle() != 10000 || got != 9999 {
			t.Errorf("reference engine %v: stopped at cycle %d with %d instruction and fetch-stall cycles accounted, want 10000 and 9999",
				ref, s.Cycle(), got)
		}
	}
}

func TestRunWithoutProgramFails(t *testing.T) {
	s := newSystem(t, 1)
	if _, err := s.Run(); err == nil {
		t.Fatal("Run without LoadProgram should fail")
	}
}

func TestInterleavingSpeedFidelityTradeoff(t *testing.T) {
	// E3 (paper §III-A): enabling Spike-style interleaving batches
	// instructions between orchestrator syncs. Functional results are
	// identical; timing fidelity differs (fewer simulated cycles because
	// several instructions retire per orchestrated cycle).
	run := func(quantum int) (*System, uint64, uint64) {
		s := newSystem(t, 2, func(c *Config) { c.InterleaveQuantum = quantum })
		s.LoadProgram(mustAsm(t, `
		_start:
			csrr t0, mhartid
			li   t1, 0
			li   t2, 2000
		loop:
			addi t1, t1, 1
			blt  t1, t2, loop
			la   a0, out
			slli t0, t0, 3
			add  a0, a0, t0
			sd   t1, 0(a0)
		`+exitAsm+`
		.data
		out: .zero 16
		`))
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return s, res.Cycles, res.Instructions
	}
	s1, cyc1, n1 := run(1)
	s8, cyc8, n8 := run(8)
	if n1 != n8 {
		t.Errorf("instruction counts differ: %d vs %d", n1, n8)
	}
	if cyc8 >= cyc1 {
		t.Errorf("quantum 8 cycles (%d) should be below quantum 1 (%d)", cyc8, cyc1)
	}
	for _, s := range []*System{s1, s8} {
		for i := 0; i < 2; i++ {
			if got := s.Mem.Read64(s.MustSymbol("out") + uint64(i*8)); got != 2000 {
				t.Errorf("out[%d] = %d", i, got)
			}
		}
	}
}

func TestIdleCyclesCostNoVisits(t *testing.T) {
	// One core waiting on a 5000-cycle memory round trip must not execute
	// 5000 orchestrator iterations' worth of work: the clock jumps to the
	// next event while cycles still advance.
	s := newSystem(t, 1, func(c *Config) { c.Uncore.MemLatency = 5000 })
	s.LoadProgram(mustAsm(t, `
	_start:
		la a0, data
		ld t0, 0(a0)
		add t1, t0, t0
	`+exitAsm+`
	.data
	data: .dword 21
	`))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 5000 {
		t.Errorf("cycles = %d, should include the memory latency", res.Cycles)
	}
	if s.Harts[0].X[6] != 42 {
		t.Errorf("t1 = %d", s.Harts[0].X[6])
	}
	if res.Host.Visits > 50 || res.Host.CyclesJumped < 2*5000-100 {
		t.Errorf("%d hart visits, %d of %d cycles jumped: the two round trips (fetch, load) should cost neither visits nor ticks",
			res.Host.Visits, res.Host.CyclesJumped, res.Cycles)
	}
}

func TestVectorKernelEndToEnd(t *testing.T) {
	s := newSystem(t, 1)
	p := mustAsm(t, `
	# y[i] = a*x[i] + y[i] (daxpy), strip-mined
	_start:
		la   a1, xs
		la   a2, ys
		la   a3, an
		fld  fa0, 0(a3)      # a
		ld   a4, 8(a3)       # n
	loop:
		vsetvli t0, a4, e64, m1, ta, ma
		vle64.v v0, (a1)
		vle64.v v1, (a2)
		vfmacc.vf v1, fa0, v0
		vse64.v v1, (a2)
		slli t1, t0, 3
		add  a1, a1, t1
		add  a2, a2, t1
		sub  a4, a4, t0
		bnez a4, loop
	`+exitAsm+`
	.data
	an: .double 2.0
	    .dword 50
	xs: .zero 400
	ys: .zero 400
	`)
	s.LoadProgram(p)
	xs, ys := s.MustSymbol("xs"), s.MustSymbol("ys")
	for i := uint64(0); i < 50; i++ {
		s.Mem.WriteFloat64(xs+i*8, float64(i))
		s.Mem.WriteFloat64(ys+i*8, 1.0)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		want := 2.0*float64(i) + 1.0
		if got := s.Mem.ReadFloat64(ys + i*8); got != want {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
	if res.HartStats[0].VectorOps == 0 {
		t.Error("no vector ops counted")
	}
}

// runTicking drives s one cycle per RunTo call: every stop clamps the
// clock jump and the look-ahead to that cycle, so the run visits every
// runnable hart and ticks the engine every cycle, as the paper's
// orchestrator does.
func runTicking(t *testing.T, s *System) *Result {
	t.Helper()
	for c := uint64(1); ; c++ {
		res, stopped, err := s.RunTo(c)
		if err != nil {
			t.Fatal(err)
		}
		if !stopped {
			return res
		}
	}
}

func TestClockJumpPreservesTiming(t *testing.T) {
	// Jumping the clock and running ahead of it are pure wall-clock
	// optimisations: simulated cycle counts and results must equal those of
	// the reference engine ticked a cycle at a time.
	build := func(ref bool) *System {
		s := newSystem(t, 4, func(c *Config) {
			c.Uncore.MemLatency = 400
			c.Hart.DisableBlockCache = ref
		})
		s.LoadProgram(mustAsm(t, barrierProgram))
		return s
	}
	sTick := build(true)
	tick := runTicking(t, sTick)
	sJump := build(false)
	jump, err := sJump.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tick.Cycles != jump.Cycles {
		t.Errorf("cycles differ: ticking %d, jumping %d", tick.Cycles, jump.Cycles)
	}
	if tick.Instructions != jump.Instructions {
		t.Errorf("instructions differ: %d vs %d", tick.Instructions, jump.Instructions)
	}
	a := sTick.Mem.Read64(sTick.MustSymbol("result"))
	b := sJump.Mem.Read64(sJump.MustSymbol("result"))
	if a != b {
		t.Errorf("results differ: %d vs %d", a, b)
	}
	if tick.Host.CyclesJumped != 0 || tick.Host.LookaheadInstr != 0 {
		t.Errorf("the ticking run jumped %d cycles and ran %d instructions ahead", tick.Host.CyclesJumped, tick.Host.LookaheadInstr)
	}
	if jump.Host.CyclesJumped == 0 || jump.Host.LookaheadInstr == 0 {
		t.Errorf("test premise broken: %d cycles jumped, %d instructions run ahead", jump.Host.CyclesJumped, jump.Host.LookaheadInstr)
	}
}

type recordingTracer struct {
	events []TraceKind
}

func (r *recordingTracer) Event(cycle uint64, hart int, kind TraceKind, addr uint64) {
	r.events = append(r.events, kind)
}

func TestTracerReceivesEvents(t *testing.T) {
	s := newSystem(t, 1)
	tr := &recordingTracer{}
	s.Tracer = tr
	s.LoadProgram(mustAsm(t, `
	_start:
		la a0, data
		ld t0, 0(a0)
		add t1, t0, t0
	`+exitAsm+`
	.data
	data: .dword 1
	`))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var gotMiss, gotStall, gotWake bool
	for _, k := range tr.events {
		switch k {
		case TraceL1DMiss:
			gotMiss = true
		case TraceStallRAW:
			gotStall = true
		case TraceWakeup:
			gotWake = true
		}
	}
	if !gotMiss || !gotStall || !gotWake {
		t.Errorf("tracer events: miss=%v stall=%v wake=%v", gotMiss, gotStall, gotWake)
	}
}

func TestReportContainsKeyLines(t *testing.T) {
	s := newSystem(t, 1)
	s.LoadProgram(mustAsm(t, "_start:"+exitAsm))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	for _, want := range []string{"cycles", "instructions", "MIPS", "L1D", "L2", "memory"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if res.UncoreReport() == "" {
		t.Error("empty uncore report")
	}
}

func TestDefaultConfigTiles(t *testing.T) {
	for _, c := range []struct{ cores, tiles int }{
		{1, 1}, {8, 1}, {9, 2}, {64, 8}, {128, 16},
	} {
		cfg := DefaultConfig(c.cores)
		if got := cfg.Tiles(); got != c.tiles {
			t.Errorf("cores %d: tiles = %d, want %d", c.cores, got, c.tiles)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("cores %d: %v", c.cores, err)
		}
	}
}

// TestWorkersReferenceEngineMatchesSequential runs the per-instruction
// reference engine (block cache disabled) under the parallel orchestrator
// and requires bit-identical results against the sequential loop. The
// golden worker tests all run with the block engine on, so the reference
// path inside specStepHart is otherwise never executed with Workers > 1.
// The MaxCycles bound is deliberately tight: a reference path that stops
// consuming step results never halts, and must fail here rather than
// grind toward the two-billion-cycle default.
func TestWorkersReferenceEngineMatchesSequential(t *testing.T) {
	run := func(workers int) *Result {
		s := newSystem(t, 4, func(c *Config) {
			c.Hart.DisableBlockCache = true
			c.InterleaveQuantum = 4
			c.Workers = workers
			c.MaxCycles = 5_000_000
		})
		s.LoadProgram(mustAsm(t, busyWorkload))
		res, err := s.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	seq := run(1)
	par := run(3)
	if par.Cycles != seq.Cycles {
		t.Errorf("cycles: workers=3 got %d, workers=1 got %d", par.Cycles, seq.Cycles)
	}
	if par.Instructions != seq.Instructions {
		t.Errorf("instructions: workers=3 got %d, workers=1 got %d", par.Instructions, seq.Instructions)
	}
}
