package core

// Differential tests for hart-local time: the block engine, running ahead
// of the clock and jumping it, against the reference engine ticked one
// cycle per RunTo call — which visits every runnable hart and advances the
// engine every cycle, as the paper's orchestrator does. Everything a run
// leaves behind must be equal: each hart's architectural state, statistics
// and L1 state (its checkpoint bytes), the Result, and the trace.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/coyote-sim/coyote/internal/asm"
	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/riscv"
)

type traceRec struct {
	cycle uint64
	hart  int
	kind  TraceKind
	addr  uint64
}

type fullTracer struct{ recs []traceRec }

func (f *fullTracer) Event(cycle uint64, hart int, kind TraceKind, addr uint64) {
	f.recs = append(f.recs, traceRec{cycle, hart, kind, addr})
}

// outcome is everything observable a finished run leaves behind.
type outcome struct {
	res   *Result
	harts [][]byte // Hart.Checkpoint of each hart
	trace []traceRec
}

func finish(t *testing.T, s *System, res *Result, tr *fullTracer) outcome {
	t.Helper()
	o := outcome{res: res, trace: tr.recs}
	for _, h := range s.Harts {
		var w ckpt.Writer
		if err := h.Checkpoint(&w); err != nil {
			t.Fatal(err)
		}
		o.harts = append(o.harts, w.Bytes())
	}
	return o
}

// runAhead runs p with the block engine in one Run call; runOracle runs it
// with the reference engine a cycle at a time.
func runAhead(t *testing.T, cores int, p *asm.Program, mut func(*Config)) outcome {
	t.Helper()
	s := newSystem(t, cores, mut)
	tr := &fullTracer{}
	s.Tracer = tr
	s.LoadProgram(p)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return finish(t, s, res, tr)
}

func runOracle(t *testing.T, cores int, p *asm.Program, mut func(*Config)) outcome {
	t.Helper()
	s := newSystem(t, cores, mut, func(c *Config) { c.Hart.DisableBlockCache = true })
	tr := &fullTracer{}
	s.Tracer = tr
	s.LoadProgram(p)
	return finish(t, s, runTicking(t, s), tr)
}

func sameOutcome(t *testing.T, got, want outcome) {
	t.Helper()
	if got.res.Cycles != want.res.Cycles || got.res.Instructions != want.res.Instructions {
		t.Errorf("%d cycles, %d instructions; the oracle has %d, %d",
			got.res.Cycles, got.res.Instructions, want.res.Cycles, want.res.Instructions)
	}
	for i := range want.harts {
		if !bytes.Equal(got.harts[i], want.harts[i]) {
			t.Errorf("hart %d: state, statistics or L1 contents differ from the oracle's (stats %+v, oracle %+v)",
				i, got.res.HartStats[i], want.res.HartStats[i])
		}
	}
	if got.res.L1I != want.res.L1I || got.res.L1D != want.res.L1D {
		t.Errorf("L1I %+v L1D %+v; the oracle has %+v %+v", got.res.L1I, got.res.L1D, want.res.L1I, want.res.L1D)
	}
	if !reflect.DeepEqual(got.res.UncoreRaw, want.res.UncoreRaw) {
		t.Errorf("uncore counters differ from the oracle's")
	}
	if !reflect.DeepEqual(got.res.ExitCodes, want.res.ExitCodes) || !reflect.DeepEqual(got.res.Consoles, want.res.Consoles) {
		t.Errorf("exit codes or consoles differ from the oracle's")
	}
	if !reflect.DeepEqual(got.trace, want.trace) {
		t.Errorf("trace differs from the oracle's: %d events against %d", len(got.trace), len(want.trace))
	}
}

const exitNoCSR = `
	li a7, 93
	li a0, 0
	ecall
`

// pendingProg leaves t0 pending on a load miss, spends 2*N+ODD cycles in
// register-only instructions that do not name it, then uses it: the
// look-ahead ends on `use` and its stamped cycle moves, with N and ODD,
// from before the fill to after it.
const pendingProg = `
.equ N, %d
_start:
	la   a0, data
	li   t1, N
	ld   t0, 0(a0)
	beqz t1, tail
pad:
	addi t1, t1, -1
	bnez t1, pad
tail:
	%s
	add  t2, t0, t0
` + exitNoCSR + `
.data
data: .dword 21
`

// TestAheadEndsOnPendingRegister: the fill lands before, at and after the
// cycle the using instruction is stamped with. Landing at it costs exactly
// one stall cycle (the attempt; the wake-up credits none), before it none,
// after it more.
func TestAheadEndsOnPendingRegister(t *testing.T) {
	fast := func(c *Config) { c.Uncore.MemLatency = 10 }
	seen := map[string]bool{}
	for n := 0; n <= 30; n++ {
		for _, odd := range []string{"", "addi t3, t3, 1"} {
			p := mustAsm(t, fmt.Sprintf(pendingProg, n, odd))
			got, want := runAhead(t, 1, p, fast), runOracle(t, 1, p, fast)
			sameOutcome(t, got, want)
			if t.Failed() {
				t.Fatalf("N=%d odd=%q", n, odd)
			}
			switch stalls := want.res.HartStats[0].StallsRAW; {
			case stalls == 0:
				seen["before"] = true
			case stalls == 1:
				seen["at"] = true
			default:
				seen["after"] = true
			}
			if n > 2 && got.res.Host.LookaheadInstr < uint64(2*n) {
				t.Fatalf("N=%d: only %d instructions ran ahead of the clock", n, got.res.Host.LookaheadInstr)
			}
		}
	}
	if len(seen) != 3 {
		t.Errorf("the sweep saw the fill land %v the stamped cycle, want before, at and after", seen)
	}
}

var aheadEdges = []struct {
	name  string
	cores int
	src   string
	mut   func(*Config)
}{
	// 40 straight-line instructions cross two I-line boundaries: on the
	// first pass the next line is not resident (the look-ahead ends, the
	// visit misses), on the second it is (the visit hits and goes on).
	{"line-boundary", 1, `
_start:
	li   s0, 2
again:
` + strings.Repeat("\taddi t0, t0, 1\n", 40) + `
	addi s0, s0, -1
	bnez s0, again
` + exitNoCSR, nil},

	// A taken branch into another I-line, and one back.
	{"branch-to-other-line", 1, `
_start:
	li   s0, 50
loop:
	addi t0, t0, 1
	j    far
` + strings.Repeat("\tnop\n", 24) + `
far:
	addi t1, t1, 2
	addi s0, s0, -1
	bnez s0, loop
` + exitNoCSR, nil},

	// Vector ops that occupy the core for 8 cycles, scalar ALU ops behind
	// each: nothing runs ahead into the occupancy window.
	{"vector-occupancy", 1, `
_start:
	li   a0, 1048576
	vsetvli t0, a0, e64, m8, ta, ma
	vmv.v.i v8, 1
	addi t1, t1, 1
	addi t1, t1, 1
	addi t1, t1, 1
	vadd.vv v16, v8, v8
	addi t2, t2, 2
	slli t2, t2, 1
	vadd.vv v24, v16, v8
` + exitNoCSR, nil},

	// Two lanes: every vector op of vl 16 occupies the core for 8 cycles,
	// which a look-ahead visit takes in one.
	{"vector-lanes-2", 2, lanesProg, twoLanes},

	// The hart halts on the instruction right behind a look-ahead.
	{"halt-after-ahead", 2, `
_start:
	li   a7, 93
	li   a0, 0
	addi t0, t0, 1
	addi t0, t0, 1
	addi t0, t0, 1
	ecall
`, nil},

	// Sixteen harts of which one is runnable for long stretches: hart 0
	// spins in registers while the others sit parked on 600-cycle misses.
	{"one-of-sixteen", 16, `
_start:
	csrr t0, mhartid
	bnez t0, waiters
	li   t1, 3000
spin:
	addi t1, t1, -1
	bnez t1, spin
	j    done
waiters:
	la   a0, data
	slli t1, t0, 10
	add  a0, a0, t1
	li   t2, 8
w:
	ld   t3, 0(a0)
	add  t4, t4, t3
	addi a0, a0, 64
	addi t2, t2, -1
	bnez t2, w
done:
` + exitNoCSR + `
.data
data: .zero 16384
`, func(c *Config) { c.Uncore.MemLatency = 600 }},

	{"barrier", 4, barrierProgram, func(c *Config) { c.Uncore.MemLatency = 400 }},
	{"busy", 4, busyWorkload, nil},
	{"busy-starved-mshrs", 4, busyWorkload, func(c *Config) { c.Uncore.L2MSHRs = 2 }},
}

func TestAheadEdgesMatchOracle(t *testing.T) {
	for _, e := range aheadEdges {
		t.Run(e.name, func(t *testing.T) {
			mut := e.mut
			if mut == nil {
				mut = func(*Config) {}
			}
			p := mustAsm(t, e.src)
			got := runAhead(t, e.cores, p, mut)
			sameOutcome(t, got, runOracle(t, e.cores, p, mut))
			if got.res.Host.LookaheadInstr == 0 || got.res.Host.CyclesJumped == 0 {
				t.Errorf("test premise broken: %d instructions ran ahead, %d cycles jumped",
					got.res.Host.LookaheadInstr, got.res.Host.CyclesJumped)
			}
		})
	}
}

// TestAheadStopsAtFault: the register-only class is an allow-list, so a
// look-ahead never reaches an undecodable word nor one execute faults on;
// the fault is raised by a visit of its own, on the cycle and with the
// text the reference engine reports. Hart 0 runs ahead up to the bad word;
// hart 1 has left and harts 2 and 3 sit parked on a 2000-cycle miss, so
// every hart has retired what the reference engine has it retire by then.
// (A hart that is itself ahead of the clock when another one faults keeps
// the instructions it ran early: Run returns no Result then, and nothing
// reads a faulted System but a test like this one.)
func TestAheadStopsAtFault(t *testing.T) {
	// The program carries a placeholder that the test overwrites before the
	// image is decoded.
	const src = `
_start:
	csrr t0, mhartid
	beqz t0, faulter
	addi t0, t0, -1
	beqz t0, leaver
	la   a0, data
	ld   t3, 0(a0)
	add  t4, t3, t3
leaver:
	li   a7, 93
	li   a0, 0
	ecall
faulter:
	li   t1, 40
spin:
	addi t1, t1, -1
	bnez t1, spin
	addi t2, t2, 1
	addi t2, t2, 1
bad:
	nop
.data
data: .zero 64
`
	for name, word := range map[string]uint32{
		"undecodable": 0xffffffff,
		// Every word the decoder accepts has an executor, so execute's
		// "unimplemented op" default cannot be reached from a program; a
		// vector op ahead of any vsetvli is the decodable word that faults
		// inside execute.
		"faults-in-execute": riscv.MustEncode(riscv.Instr{Op: riscv.OpVADDVV, Rd: 8, Rs1: 16, Rs2: 24, VM: true}),
	} {
		t.Run(name, func(t *testing.T) {
			run := func(ref bool) (string, uint64, []uint64) {
				s := newSystem(t, 4, func(c *Config) {
					c.Hart.DisableBlockCache = ref
					c.Uncore.MemLatency = 2000
				})
				p := mustAsm(t, src)
				s.LoadProgram(p)
				s.Mem.Write32(s.MustSymbol("bad"), word)
				s.decodeText()
				_, err := s.Run()
				if err == nil {
					t.Fatal("the run should fault")
				}
				if !ref && s.host.LookaheadInstr < 80 {
					t.Fatalf("test premise broken: %d instructions ran ahead of the clock", s.host.LookaheadInstr)
				}
				var instret []uint64
				for _, h := range s.Harts {
					instret = append(instret, h.Stats.Instret)
				}
				return err.Error(), s.Cycle(), instret
			}
			refErr, refCycle, refInstret := run(true)
			gotErr, gotCycle, gotInstret := run(false)
			if gotErr != refErr || gotCycle != refCycle {
				t.Errorf("fault %q at cycle %d; the reference engine reports %q at %d", gotErr, gotCycle, refErr, refCycle)
			}
			if !reflect.DeepEqual(gotInstret, refInstret) {
				t.Errorf("instructions retired per hart at the fault %v; the reference engine has %v", gotInstret, refInstret)
			}
			if !strings.Contains(refErr, "pc=") {
				t.Errorf("fault text %q names no pc", refErr)
			}
		})
	}
}

// TestAheadBoundedPerVisit: a hart in an endless register-only loop runs
// ahead a bounded stretch per visit, so the hart beside it that ends the
// run — here by faulting at its second line of text — gets its turn after
// thousands of host instructions, not MaxCycles of them.
func TestAheadBoundedPerVisit(t *testing.T) {
	s := newSystem(t, 2)
	s.LoadProgram(mustAsm(t, `
_start:
	csrr t0, mhartid
	beqz t0, faulter
forever:
	addi t1, t1, 1
	j    forever
faulter:
	li   t2, 20
spin:
	addi t2, t2, -1
	bnez t2, spin
bad:
	nop
`))
	s.Mem.Write32(s.MustSymbol("bad"), 0xffffffff)
	s.decodeText()
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "pc=") {
		t.Fatalf("want hart 0's decode fault, got %v", err)
	}
	if got := s.Harts[1].Stats.Instret; got > s.Cycle()+maxAhead {
		t.Errorf("hart 1 retired %d instructions by the fault at cycle %d: more than %d ahead", got, s.Cycle(), maxAhead)
	}
}

// lanesProg keeps each hart's core occupied most of the time under
// twoLanes: twelve vector ops of vl 16, with register-only work between.
const lanesProg = `
_start:
	li   a0, 16
	vsetvli t0, a0, e64, m1, ta, ma
	vmv.v.i v8, 1
	li   s0, 6
loop:
	vadd.vv v16, v8, v8
	addi t1, t1, 1
	addi t1, t1, 1
	vadd.vv v8, v16, v8
	addi s0, s0, -1
	bnez s0, loop
` + exitNoCSR

func twoLanes(c *Config) { c.Hart.VectorLanes = 2 }

// TestBusyWindowStops: a visit that finds the core occupied is the only
// one the busy window costs, and a RunTo stop at any cycle — inside a
// window included — leaves every hart where the reference engine ticked a
// cycle at a time has it, and the run resumed from there ends the same.
func TestBusyWindowStops(t *testing.T) {
	p := mustAsm(t, lanesProg)
	// The oracle, with each hart's checkpoint bytes at every stop.
	s := newSystem(t, 2, twoLanes, func(c *Config) { c.Hart.DisableBlockCache = true })
	tr := &fullTracer{}
	s.Tracer = tr
	s.LoadProgram(p)
	var at [][][]byte
	var final *Result
	for c := uint64(1); final == nil; c++ {
		res, stopped, err := s.RunTo(c)
		if err != nil {
			t.Fatal(err)
		}
		if !stopped {
			final = res
		}
		at = append(at, finish(t, s, res, tr).harts)
	}
	want := finish(t, s, final, tr)

	got := runAhead(t, 2, p, twoLanes)
	sameOutcome(t, got, want)
	var busy uint64
	for _, hs := range got.res.HartStats {
		busy += hs.BusyCycles
	}
	if busy < 100 || got.res.Host.Visits >= busy {
		t.Errorf("%d visits for %d busy cycles: a busy window should cost one visit, not one per cycle",
			got.res.Host.Visits, busy)
	}

	for stop := uint64(1); stop < final.Cycles; stop++ {
		s := newSystem(t, 2, twoLanes)
		tr := &fullTracer{}
		s.Tracer = tr
		s.LoadProgram(p)
		res, stopped, err := s.RunTo(stop)
		if err != nil || !stopped {
			t.Fatalf("RunTo(%d): stopped %v, %v", stop, stopped, err)
		}
		for i, b := range finish(t, s, res, tr).harts {
			if !bytes.Equal(b, at[stop-1][i]) {
				t.Fatalf("stop at %d: hart %d differs from the oracle's (busy until %d)", stop, i, s.Harts[i].BusyUntil())
			}
		}
		res, err = s.Run()
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, finish(t, s, res, tr), want)
		if t.Failed() {
			t.Fatalf("resumed from a stop at %d", stop)
		}
	}
}
