package core

import (
	"fmt"
	"math/bits"
	"time"

	"github.com/coyote-sim/coyote/internal/asm"
	"github.com/coyote-sim/coyote/internal/cpu"
	"github.com/coyote-sim/coyote/internal/evsim"
	"github.com/coyote-sim/coyote/internal/mem"
	"github.com/coyote-sim/coyote/internal/san"
	"github.com/coyote-sim/coyote/internal/uncore"
)

// TraceKind classifies trace events emitted by the orchestrator.
type TraceKind int

const (
	// TraceL1DMiss is a data-cache miss leaving a core.
	TraceL1DMiss TraceKind = iota
	// TraceL1IMiss is an instruction-fetch miss.
	TraceL1IMiss
	// TraceStallRAW marks a core going inactive on a dependency.
	TraceStallRAW
	// TraceWakeup marks a core reactivating after a fill.
	TraceWakeup
)

// Tracer receives simulation events; the Paraver writer in internal/trace
// implements it. Implementations must be cheap: they run inside the
// simulation loop.
type Tracer interface {
	Event(cycle uint64, hart int, kind TraceKind, addr uint64)
}

// doneFetch flags a fetch-miss completion in a packed Done argument. Data
// fills pack (RegKind << 8 | reg), which stays below 1<<16, so the two
// encodings cannot collide.
const doneFetch = uint64(1) << 16

// System is one simulated machine instance.
type System struct {
	cfg    Config
	Mem    *mem.Memory
	Harts  []*cpu.Hart
	Eng    *evsim.Engine
	Uncore *uncore.Uncore

	cycle uint64
	// runnable is a bitset over harts: bit set = the hart wants the step
	// loop's attention this cycle (ready to execute, or busy and counting
	// down). Parking on a stall clears the bit; a fill completion sets it.
	// Iterating set bits with TrailingZeros64 visits harts in index order,
	// exactly like the old per-hart boolean scan, so the functional memory
	// interleaving — and therefore simulated timing — is unchanged; only
	// the O(Cores) skip over parked harts disappears.
	runnable []uint64
	halted   []bool
	nDone    int

	// doneFns holds one long-lived completion callback per hart. Miss
	// completions carry a packed argument (doneFetch, or dest kind/reg)
	// instead of a fresh closure per event — see dispatch. doneH holds the
	// matching engine-registry handles so in-flight completions can be
	// named in a checkpoint.
	doneFns []func(uint64)
	doneH   []evsim.Handle

	// resv is the shared LR/SC reservation set (part of the architectural
	// state a checkpoint must carry).
	resv *cpu.Reservations

	// stall bookkeeping: when a core parks, remember why and since when
	// so the wake-up can credit the full stalled duration to its stats.
	stallSince []uint64
	stallFetch []bool

	// san tracks every completion the orchestrator hands to the uncore:
	// each issued Done must fire exactly once. Keys pack (hart << 32 |
	// packed doneFn argument), so a double delivery or a dropped fill is
	// pinned to the exact hart and destination register.
	san san.Ledger

	// par holds the parallel orchestrator's worker pool, per-cycle shard
	// bookkeeping and speculation statistics (see parallel.go). Unused
	// (zero) when cfg.Workers <= 1.
	par parState

	Tracer Tracer

	prog *asm.Program
}

// New builds a system from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:        cfg,
		Mem:        mem.New(),
		Eng:        evsim.NewEngine(),
		runnable:   make([]uint64, (cfg.Cores+63)/64),
		halted:     make([]bool, cfg.Cores),
		doneFns:    make([]func(uint64), cfg.Cores),
		doneH:      make([]evsim.Handle, cfg.Cores),
		stallSince: make([]uint64, cfg.Cores),
		stallFetch: make([]bool, cfg.Cores),
	}
	s.san.Init("core.completions")
	un, err := uncore.New(cfg.Uncore, s.Eng)
	if err != nil {
		return nil, err
	}
	s.Uncore = un
	s.resv = cpu.NewReservations(cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		h, err := cpu.NewHart(i, cfg.Hart, s.Mem, s.resv)
		if err != nil {
			return nil, err
		}
		h.CycleFn = func() uint64 { return s.cycle }
		s.Harts = append(s.Harts, h)
		s.runnable[i/64] |= 1 << (i % 64)
		hart := i
		s.doneFns[i] = func(arg uint64) {
			s.san.Settle(s.Eng.Now(), uint64(hart)<<32|arg)
			if arg&doneFetch != 0 {
				s.Harts[hart].CompleteFetch()
			} else {
				s.Harts[hart].CompleteFill(cpu.RegKind(arg>>8), uint8(arg))
			}
			s.wake(hart)
		}
		// Registered after the uncore's handles: construction order — and
		// therefore every handle value — is a pure function of Config,
		// which is what lets a checkpoint name callbacks by handle.
		s.doneH[i] = s.Eng.RegisterFn(s.doneFns[i])
	}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Cycle returns the current simulated cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// LoadProgram installs an assembled image and resets every hart to its
// entry point with a private stack. All harts run the same binary and
// differentiate via the mhartid CSR, exactly like Spike's bare-metal
// multicore mode.
func (s *System) LoadProgram(p *asm.Program) {
	p.LoadInto(s.Mem)
	s.prog = p
	s.decodeText()
	for i, h := range s.Harts {
		h.PC = p.Entry
		h.X[2] = s.cfg.StackTop - uint64(i)*s.cfg.StackSize // sp
	}
}

// decodeText gives every hart one shared pre-decoded image of the loaded
// program's text as it stands in memory.
func (s *System) decodeText() {
	text := cpu.NewText(s.Mem, s.prog.TextBase, (len(s.prog.Text)+3)/4)
	for _, h := range s.Harts {
		h.SetText(text)
	}
}

// Program returns the loaded program image (nil before LoadProgram) —
// checkpoint files embed it so a restore needs no assembler.
func (s *System) Program() *asm.Program { return s.prog }

// Symbol resolves a program symbol; it panics if no program is loaded.
func (s *System) Symbol(name string) (uint64, bool) {
	v, ok := s.prog.Symbols[name]
	return v, ok
}

// MustSymbol resolves a symbol or panics — for harness code where the
// symbol is statically known to exist.
func (s *System) MustSymbol(name string) uint64 {
	v, ok := s.Symbol(name)
	if !ok {
		panic(fmt.Sprintf("core: no symbol %q in loaded program", name))
	}
	return v
}

// tileOf maps a hart to its tile.
func (s *System) tileOf(hart int) int { return hart / s.cfg.CoresPerTile }

// park removes a hart from the runnable set.
func (s *System) park(hart int) {
	s.runnable[hart/64] &^= 1 << (hart % 64)
}

// anyRunnableSet reports whether any hart is in the runnable set.
func (s *System) anyRunnableSet() bool {
	for _, w := range s.runnable {
		if w != 0 {
			return true
		}
	}
	return false
}

// dispatch drains a hart's memory events into the uncore. Completions are
// the hart's pre-bound doneFn carrying a packed argument, so the
// steady-state miss path schedules no closures and allocates nothing.
// Events are consumed synchronously: the hart's buffer is truncated in
// place and its backing array reused, and gather descriptors return to
// the hart's pool once the MCPU has coalesced them.
//
//coyote:allocfree
func (s *System) dispatch(h *cpu.Hart) {
	events := h.Events
	h.Events = h.Events[:0]
	for _, ev := range events {
		if ev.Gather != nil {
			// MCPU scatter/gather descriptor: one transaction for the
			// whole indexed access, straight to the memory side.
			var done uncore.Done
			if ev.HasDest {
				done = uncore.Done{
					F:   s.doneFns[ev.Hart],
					Arg: uint64(ev.Dest)<<8 | uint64(ev.DestReg),
					H:   s.doneH[ev.Hart],
				}
				s.san.Issue(s.cycle, uint64(ev.Hart)<<32|done.Arg)
				if s.Tracer != nil && len(ev.Gather) > 0 {
					s.Tracer.Event(s.cycle, ev.Hart, TraceL1DMiss, ev.Gather[0])
				}
			}
			s.Uncore.SubmitGather(s.tileOf(ev.Hart), ev.Gather, ev.Write, done)
			h.RecycleGatherBuf(ev.Gather)
			continue
		}
		req := uncore.Request{
			Tile:  s.tileOf(ev.Hart),
			Addr:  ev.Addr,
			Write: ev.Write,
		}
		switch {
		case ev.Fetch:
			req.Done = uncore.Done{F: s.doneFns[ev.Hart], Arg: doneFetch, H: s.doneH[ev.Hart]}
			s.san.Issue(s.cycle, uint64(ev.Hart)<<32|doneFetch)
			if s.Tracer != nil {
				s.Tracer.Event(s.cycle, ev.Hart, TraceL1IMiss, ev.Addr)
			}
		case ev.HasDest:
			req.Done = uncore.Done{
				F:   s.doneFns[ev.Hart],
				Arg: uint64(ev.Dest)<<8 | uint64(ev.DestReg),
				H:   s.doneH[ev.Hart],
			}
			s.san.Issue(s.cycle, uint64(ev.Hart)<<32|req.Done.Arg)
			if s.Tracer != nil {
				s.Tracer.Event(s.cycle, ev.Hart, TraceL1DMiss, ev.Addr)
			}
		default:
			// Writebacks and write-allocate fetches need no completion.
			if !ev.Write && s.Tracer != nil {
				s.Tracer.Event(s.cycle, ev.Hart, TraceL1DMiss, ev.Addr)
			}
		}
		s.Uncore.Submit(req)
	}
}

// wake returns a parked hart to the runnable set and credits its stall.
//
//coyote:allocfree
func (s *System) wake(hart int) {
	if s.runnable[hart/64]&(1<<(hart%64)) == 0 && !s.halted[hart] {
		s.runnable[hart/64] |= 1 << (hart % 64)
		// Credit the cycles the core sat parked (its own Step already
		// counted the cycle on which it reported the stall).
		if now := s.Eng.Now(); now > s.stallSince[hart]+1 {
			s.Harts[hart].AddStallCycles(s.stallFetch[hart], now-s.stallSince[hart]-1)
		}
		if s.Tracer != nil {
			s.Tracer.Event(s.Eng.Now(), hart, TraceWakeup, 0)
		}
	}
}

// ResetStats zeroes every statistic in the system — hart counters, cache
// counters and uncore unit counters — without touching architectural or
// cache state. Call it after a warm-up region (e.g. from a custom driver
// loop) so the final Result covers only the measurement window. The cycle
// counter keeps running; Result.Cycles still reports the absolute time.
func (s *System) ResetStats() {
	for _, h := range s.Harts {
		h.Stats = cpu.Stats{}
		h.L1I.ResetStats()
		h.L1D.ResetStats()
	}
	s.Uncore.ResetStats()
}

// noStop disables a run-loop stop bound.
const noStop = ^uint64(0)

// Run simulates until every hart halts, a fault occurs, or MaxCycles is
// reached.
//
//coyote:globalfree
func (s *System) Run() (*Result, error) {
	res, _, err := s.run(noStop, noStop)
	return res, err
}

// RunTo simulates until every hart halts or the clock reaches stopCycle,
// whichever comes first. It reports stopped=true when the bound was hit:
// the engine has serviced everything up to stopCycle-1, no hart has a
// speculative episode armed and no hart holds undrained events — exactly
// the quiescent inter-cycle boundary CheckpointState serializes. The
// calendar is NOT drained on a stop, so pending events survive into the
// checkpoint and the resumed run replays them on schedule.
func (s *System) RunTo(stopCycle uint64) (*Result, bool, error) {
	return s.run(stopCycle, noStop)
}

// RunUntilInstret simulates until the harts' summed retired-instruction
// count reaches target (or the program ends). The sampling driver uses it
// to bound warm-up and measurement windows in instructions, the unit in
// which sampling intervals are defined.
func (s *System) RunUntilInstret(target uint64) (*Result, bool, error) {
	return s.run(noStop, target)
}

// TotalInstret sums retired instructions across all harts.
func (s *System) TotalInstret() uint64 {
	var n uint64
	for _, h := range s.Harts {
		n += h.Stats.Instret
	}
	return n
}

func (s *System) run(stopCycle, stopInstret uint64) (*Result, bool, error) {
	if s.prog == nil {
		return nil, false, fmt.Errorf("core: no program loaded")
	}
	parallel := s.cfg.Workers > 1 && len(s.Harts) > 1
	if parallel {
		s.startWorkers()
		defer s.stopWorkers()
	}
	stopped := false
	start := time.Now() //coyote:wallclock-ok wall-clock MIPS measurement only; never feeds back into simulated timing
	for s.nDone < len(s.Harts) {
		if s.cycle >= stopCycle || (stopInstret != noStop && s.TotalInstret() >= stopInstret) {
			stopped = true
			break
		}
		if s.cycle >= s.cfg.MaxCycles {
			return nil, false, fmt.Errorf("core: cycle limit %d reached (deadlock or runaway kernel?)",
				s.cfg.MaxCycles)
		}
		var anyRunnable bool
		var err error
		if parallel {
			anyRunnable, err = s.stepCycleParallel()
		} else {
			anyRunnable, err = s.stepCycleSeq()
		}
		if err != nil {
			return nil, false, err
		}

		// Advance the event-driven model to "now", servicing anything due
		// this cycle (paper: "the Orchestrator checks if Sparta has any
		// in-flight events for the current cycle").
		s.Eng.AdvanceTo(s.cycle)
		s.cycle++

		if anyRunnable {
			continue
		}
		// Completions processed by AdvanceTo above may have re-added a
		// hart to the runnable set after anyRunnable was computed.
		if s.anyRunnableSet() {
			continue
		}
		if san.Enabled {
			s.auditRunnable()
		}
		// Every core is stalled or halted (a busy hart keeps its runnable
		// bit and would have set anyRunnable above).
		if s.nDone == len(s.Harts) {
			// All done. Exit before consulting the event queue: leftover
			// writeback events must not fast-forward the final cycle count
			// past the point a ticking run would report.
			break
		}
		// Find the next moment anything can change: the earliest pending
		// event.
		next, ok := s.Eng.NextEventTime()
		if !ok {
			return nil, false, fmt.Errorf(
				"core: deadlock at cycle %d: %d/%d harts halted, none runnable, no pending events",
				s.cycle, s.nDone, len(s.Harts))
		}
		if !s.cfg.FastForward {
			// Coyote mode: tick every idle cycle (this is the wall-clock
			// cost that bottlenecks low core counts in Figure 3).
			continue
		}
		// Fast-forward: jump the clock to the next event time. The loop
		// top keeps the canonical step-then-advance order, so completions
		// still wake cores for the *following* cycle, exactly as when
		// ticking cycle by cycle. Statistics count the skipped cycles.
		// A stop bound clamps the jump: the loop passes through stopCycle
		// (an empty runnable sweep and a no-op AdvanceTo — observationally
		// identical to jumping over it) and breaks at the loop top.
		if next > stopCycle {
			next = stopCycle
		}
		if next > s.cycle {
			s.cycle = next
		}
	}
	if stopped {
		// Stop-bound exit: leave the calendar pending for the checkpoint
		// and skip the end-of-run audits — the run is not over. A clamped
		// fast-forward jump can leave the engine clock behind the stop
		// boundary with nothing scheduled in between; normalize it to the
		// canonical cycle-1 position (a pure clock move: the earliest
		// pending event is at or past the stop cycle, or the engine would
		// already be there).
		if s.cycle > 0 && s.Eng.Now() < s.cycle-1 {
			s.Eng.AdvanceTo(s.cycle - 1)
		}
		return s.collect(time.Since(start)), true, nil //coyote:wallclock-ok reports simulator throughput; simulated state is already final
	}
	s.Eng.Drain()
	if san.Enabled {
		// End-of-run conservation: every issued completion fired exactly
		// once, no MSHR still holds an in-flight line, every tag store
		// matches its shadow directory.
		s.san.Drained(s.Eng.Now())
		s.Uncore.Audit()
	}
	return s.collect(time.Since(start)), false, nil //coyote:wallclock-ok reports simulator throughput; simulated state is already final
}

// stepCycleSeq is the classic single-goroutine functional phase: step
// every runnable hart in index order, dispatching misses as they appear.
// Sweep only the harts that want attention. Completions cannot fire
// mid-sweep (they run inside AdvanceTo afterwards), and a stepped hart can
// only park or halt itself, so iterating over word copies visits exactly
// the harts that were runnable at cycle start — in index order, like the
// old full scan.
func (s *System) stepCycleSeq() (bool, error) {
	anyRunnable := false
	for w, word := range s.runnable {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			i := w*64 + b
			if err := s.stepHart(i, s.Harts[i], &anyRunnable); err != nil {
				return false, err
			}
		}
	}
	return anyRunnable, nil
}

// stepHart runs one hart's interleave quantum sequentially — the per-hart
// body of the classic loop. It is also the serial re-execution fallback
// for misspeculated or spec-unsafe harts in the parallel commit walk.
//
// The quantum is consumed in superblock bites via StepBlock, with one
// dispatch per bite instead of one per instruction. Batching does not
// move any simulated event: every instruction of the quantum runs at the
// same cycle, so the uncore sees the identical requests in the identical
// order at the identical time — only the Go-side call count changes. The
// reference per-instruction engine (Hart.DisableBlockCache) keeps the
// classic step-then-dispatch loop for differential testing.
func (s *System) stepHart(i int, h *cpu.Hart, anyRunnable *bool) error {
	if h.BusyUntil() > s.cycle {
		*anyRunnable = true // occupied, but will free itself
		h.Stats.BusyCycles++
		return nil
	}
	if !h.BlockEngineEnabled() {
		return s.stepHartRef(i, h, anyRunnable)
	}
	rem := s.cfg.InterleaveQuantum
	for {
		n, res := h.StepBlock(s.cycle, rem)
		rem -= n
		if n > 0 {
			*anyRunnable = true
		}
		if len(h.Events) > 0 {
			s.dispatch(h)
		}
		if res != cpu.StepExecuted {
			return s.applyStepResult(i, h, res, anyRunnable)
		}
		if rem == 0 {
			return nil
		}
		// res == StepExecuted implies n ≥ 1, so rem strictly decreases.
	}
}

// stepHartRef is the pre-superblock reference loop: one Step, one
// dispatch, per instruction. Kept verbatim so the golden differential
// tests can pin the block engine against it.
func (s *System) stepHartRef(i int, h *cpu.Hart, anyRunnable *bool) error {
	for q := 0; q < s.cfg.InterleaveQuantum; q++ {
		res := h.Step(s.cycle)
		if len(h.Events) > 0 {
			s.dispatch(h)
		}
		if res == cpu.StepExecuted {
			*anyRunnable = true
			continue
		}
		return s.applyStepResult(i, h, res, anyRunnable)
	}
	return nil
}

// applyStepResult performs the orchestrator-side bookkeeping for a hart's
// final step result this cycle: halting, parking on stalls, stall-trace
// emission. Shared by the sequential loop and the parallel commit walk,
// which is what keeps the two paths' observable state identical.
func (s *System) applyStepResult(i int, h *cpu.Hart, res cpu.StepResult, anyRunnable *bool) error {
	switch res {
	case cpu.StepExecuted:
		*anyRunnable = true
	case cpu.StepFault:
		return h.Fault
	case cpu.StepHalted:
		if !s.halted[i] {
			s.halted[i] = true
			s.park(i)
			s.nDone++
		}
	case cpu.StepStalledRAW, cpu.StepStalledFetch:
		s.park(i)
		s.stallSince[i] = s.cycle
		s.stallFetch[i] = res == cpu.StepStalledFetch
		if san.Enabled {
			// A parked hart must have an outstanding fill to wake it, or
			// it sleeps forever.
			san.Check(h.PendingAny(), s.cycle, "core.runnable",
				"hart parked on a stall with no outstanding fill", uint64(i), 0)
			if res == cpu.StepStalledFetch {
				s.san.Covered(s.cycle, uint64(i)<<32|doneFetch)
			}
		}
		if res == cpu.StepStalledRAW && s.Tracer != nil {
			s.Tracer.Event(s.cycle, i, TraceStallRAW, 0)
		}
	case cpu.StepBusy:
		*anyRunnable = true
	case cpu.StepSpecUnsafe:
		// Only produced while speculation is armed; the parallel commit
		// walk intercepts it before bookkeeping, and a sequential step can
		// never return it.
		panic("core: StepSpecUnsafe reached orchestrator bookkeeping")
	}
	return nil
}

// auditRunnable cross-checks the runnable bitset against per-hart state at
// a quiescent point (no hart ran this cycle): halted harts must be out of
// the set, and a parked, un-halted hart must have an outstanding fill that
// can wake it. Only called in the coyotesan build.
func (s *System) auditRunnable() {
	for i, h := range s.Harts {
		bit := s.runnable[i/64]&(1<<(i%64)) != 0
		if s.halted[i] {
			san.Check(!bit, s.cycle, "core.runnable",
				"halted hart still in the runnable set", uint64(i), 0)
			continue
		}
		if !bit {
			san.Check(h.PendingAny(), s.cycle, "core.runnable",
				"hart parked with no outstanding fill (would sleep forever)", uint64(i), 0)
		}
	}
}
