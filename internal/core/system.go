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

	// due is the cycle at which each runnable hart next needs a visit,
	// dense so that passing over a hart that is not due touches no Hart.
	// A sequential InterleaveQuantum-1 visit at cycle c that retires n
	// instructions — its own and n-1 looked ahead into (cpu.StepAhead) —
	// sets due to c+n, and one that finds the core occupied by a vector op
	// sets it to the cycle the core frees, or to aheadLimit if that is
	// nearer. Workers > 1, InterleaveQuantum > 1, an instruction bound and
	// the reference engine keep one visit a cycle (due = c+1) and gain only
	// the clock jump over cycles in which nothing is due. A wake-up makes
	// its hart due the next cycle. Not checkpointed: at every stop due ≤
	// cycle for all harts, which is all a restored run needs to know. minDue
	// is the earliest due among the runnable harts, noStop when there are
	// none.
	due    []uint64
	minDue uint64

	// aheadLimit is the cycle no hart may run ahead to or past during the
	// current run call — the stop bound or MaxCycles, whichever is nearer —
	// and aheadSpan how far past its own cycle one visit may carry a hart:
	// maxAhead, 1 in an instruction-bounded run (no look-ahead), 0 where
	// visits do not go through StepAhead at all.
	aheadLimit uint64
	aheadSpan  uint64

	host HostStats

	// sanTextGen is the image generation coyotesan last saw (sanCheckReload).
	sanTextGen uint64

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
		due:        make([]uint64, cfg.Cores),
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
	s.sanTextGen, _ = s.Harts[0].TextReload()
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
		// Completions fire inside AdvanceTo(s.cycle), after the cycle's
		// visits: the hart steps again at the next one.
		s.due[hart] = s.cycle + 1
		if s.minDue > s.cycle+1 {
			s.minDue = s.cycle + 1
		}
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

// maxAhead bounds how far one visit may carry a hart ahead of the clock. A
// hart in a long register-only loop would otherwise hold the host until
// the loop or MaxCycles ends, while another hart may be about to end the
// run (a fault, an exit that makes the result final); at this length the
// per-visit cost it amortises is already invisible.
const maxAhead = 4096

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
	// A hart runs ahead of the clock only on the sequential path at
	// InterleaveQuantum 1 with the block engine, and never to or past the
	// cycle this call can stop at: at a RunTo stop every hart is where a
	// cycle-by-cycle run has it. An instruction bound stops at the first
	// cycle the count is reached, which look-ahead would move.
	bound := min(stopCycle, s.cfg.MaxCycles)
	s.aheadLimit = bound
	s.aheadSpan = 0
	if !parallel && s.cfg.InterleaveQuantum == 1 && !s.cfg.Hart.DisableBlockCache {
		s.aheadSpan = maxAhead
		if stopInstret != noStop {
			s.aheadSpan = 1
		}
	}
	// Every hart left runnable by the previous call (or a restore, or
	// RunFunctional) is due now; the first sweep works out the rest.
	s.minDue = s.cycle
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
		if s.minDue > s.cycle {
			// No hart needs a visit this cycle: every one is parked, halted
			// or has run ahead. Move the clock to the next cycle anything is
			// due — a hart, an event, or the bound, which the checks above
			// then act on.
			next := s.minDue
			if next == noStop && san.Enabled {
				s.auditRunnable()
			}
			if t, ok := s.Eng.NextEventTime(); ok {
				next = min(next, t)
			} else if next == noStop {
				return nil, false, fmt.Errorf(
					"core: deadlock at cycle %d: %d/%d harts halted, none runnable, no pending events",
					s.cycle, s.nDone, len(s.Harts))
			}
			next = min(next, bound)
			if next > s.cycle {
				s.jumpTo(next)
				continue
			}
		} else if err := s.stepCycle(parallel); err != nil {
			return nil, false, err
		}

		// Advance the event-driven model to "now", servicing anything due
		// this cycle (paper: "the Orchestrator checks if Sparta has any
		// in-flight events for the current cycle"). A completion that wakes
		// a parked hart lowers minDue to the next cycle.
		s.Eng.AdvanceTo(s.cycle)
		s.cycle++
	}
	if stopped {
		// Stop-bound exit: leave the calendar pending for the checkpoint
		// and skip the end-of-run audits — the run is not over. A stop on
		// entry after RunFunctional finds the engine clock where the drain
		// left it, behind the boundary with nothing scheduled in between;
		// normalize it to the canonical cycle-1 position (a pure clock
		// move: the calendar is empty).
		if s.cycle > 0 && s.Eng.Now() < s.cycle-1 {
			s.Eng.AdvanceTo(s.cycle - 1)
		}
		if san.Enabled {
			s.auditDue()
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

// jumpTo moves the clock from a cycle in which nothing is due to next. A
// hart steps at cycle c with the engine at c-1, or every request it submits
// is stamped early; nothing is queued before next, so moving the engine
// there runs no event.
func (s *System) jumpTo(next uint64) {
	executed := s.Eng.Executed()
	s.Eng.AdvanceTo(next - 1)
	if san.Enabled {
		t, ok := s.Eng.NextEventTime()
		san.Check(s.Eng.Executed() == executed && (!ok || t >= next), s.cycle, "core.due",
			"clock jump passed over a queued event", next, t)
	}
	s.host.ClockJumps++
	s.host.CyclesJumped += next - s.cycle
	s.cycle = next
}

// stepCycle visits the harts due at the current cycle and leaves minDue
// at the earliest cycle one is due again.
func (s *System) stepCycle(parallel bool) error {
	if !parallel {
		return s.stepCycleSeq()
	}
	err := s.stepCycleParallel()
	s.minDue = noStop
	if s.anyRunnableSet() {
		s.minDue = s.cycle + 1
	}
	return err
}

// stepCycleSeq is the classic single-goroutine functional phase: step
// every hart that is due, in index order, dispatching misses as they
// appear. Completions cannot fire mid-sweep (they run inside AdvanceTo
// afterwards), and a stepped hart can only park or halt itself, so
// iterating over word copies visits exactly the harts that were runnable
// at cycle start. A hart passed over because it has run ahead is, on this
// cycle, executing an instruction nothing else can observe: the harts
// that touch memory still do so in index order, so the functional memory
// interleaving — and therefore simulated timing — is that of a sweep over
// every runnable hart.
func (s *System) stepCycleSeq() error {
	minDue := noStop
	for w, word := range s.runnable {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			i := w*64 + b
			d := s.due[i]
			if d <= s.cycle {
				if err := s.stepHart(i, s.Harts[i]); err != nil {
					return err
				}
				if san.Enabled {
					s.sanCheckReload(s.Harts[i])
				}
				if s.runnable[w]&(1<<b) == 0 {
					continue // parked or halted
				}
				d = s.due[i]
			}
			minDue = min(minDue, d)
		}
	}
	s.minDue = minDue
	return nil
}

// stepHart is one visit to a hart at the current cycle: its interleave
// quantum, run sequentially. It is also the serial re-execution fallback
// for misspeculated or spec-unsafe harts in the parallel commit walk. It
// leaves the hart parked, halted, or due at a later cycle.
//
// The quantum is consumed in superblock bites via StepBlock, with one
// dispatch per bite instead of one per instruction. Batching does not
// move any simulated event: every instruction of the quantum runs at the
// same cycle, so the uncore sees the identical requests in the identical
// order at the identical time — only the Go-side call count changes. At
// InterleaveQuantum 1 the bite is StepAhead's: the visit's own
// instruction, whose events are dispatched here at this cycle, and the
// register-only instructions behind it, which produce none. The
// reference per-instruction engine (Hart.DisableBlockCache) keeps the
// classic step-then-dispatch loop for differential testing.
func (s *System) stepHart(i int, h *cpu.Hart) error {
	if san.Enabled {
		san.Check(s.due[i] <= s.cycle, s.cycle, "core.due",
			"hart stepped before the cycle it is due", uint64(i), s.due[i])
	}
	s.host.Visits++
	s.due[i] = s.cycle + 1
	if busy := h.BusyUntil(); busy > s.cycle {
		// Occupied, but will free itself. Where harts run ahead, the visits
		// that would only count the busy cycles one at a time are taken in
		// one, never past the cycle this call can stop at.
		if s.aheadSpan > 1 {
			s.due[i] = min(busy, s.aheadLimit)
		}
		h.Stats.BusyCycles += s.due[i] - s.cycle
		return nil
	}
	if !h.BlockEngineEnabled() {
		return s.stepHartRef(i, h)
	}
	if s.aheadSpan > 0 {
		n, res := h.StepAhead(s.cycle, min(s.aheadLimit, s.cycle+s.aheadSpan))
		if len(h.Events) > 0 {
			s.dispatch(h)
		}
		if res != cpu.StepExecuted {
			return s.applyStepResult(i, h, res)
		}
		s.due[i] = s.cycle + uint64(n)
		s.host.LookaheadInstr += uint64(n - 1)
		return nil
	}
	rem := s.cfg.InterleaveQuantum
	for {
		n, res := h.StepBlock(s.cycle, rem)
		rem -= n
		if len(h.Events) > 0 {
			s.dispatch(h)
		}
		if res != cpu.StepExecuted {
			return s.applyStepResult(i, h, res)
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
func (s *System) stepHartRef(i int, h *cpu.Hart) error {
	for q := 0; q < s.cfg.InterleaveQuantum; q++ {
		res := h.Step(s.cycle)
		if len(h.Events) > 0 {
			s.dispatch(h)
		}
		if res != cpu.StepExecuted {
			return s.applyStepResult(i, h, res)
		}
	}
	return nil
}

// applyStepResult performs the orchestrator-side bookkeeping for a hart's
// final step result this cycle: halting, parking on stalls, stall-trace
// emission. Shared by the sequential loop and the parallel commit walk,
// which is what keeps the two paths' observable state identical.
func (s *System) applyStepResult(i int, h *cpu.Hart, res cpu.StepResult) error {
	switch res {
	case cpu.StepExecuted, cpu.StepBusy:
		// still runnable, due next cycle
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
	case cpu.StepSpecUnsafe:
		// Only produced while speculation is armed; the parallel commit
		// walk intercepts it before bookkeeping, and a sequential step can
		// never return it.
		panic("core: StepSpecUnsafe reached orchestrator bookkeeping")
	}
	return nil
}

// sanCheckReload reports a fence.i that changed an element of the image
// while some hart was ahead of the clock: that hart has executed the old
// decode on cycles at which, stepped a cycle at a time, it would have
// fetched the new one. An image that holds a fence.i allows no look-ahead
// (cpu.Text), so this cannot fire unless that rule is broken. Only called
// in the coyotesan build.
func (s *System) sanCheckReload(h *cpu.Hart) {
	gen, changed := h.TextReload()
	if gen == s.sanTextGen {
		return
	}
	s.sanTextGen = gen
	for j := range s.Harts {
		if changed && s.runnable[j/64]&(1<<(j%64)) != 0 {
			san.Check(s.due[j] <= s.cycle+1, s.cycle, "core.due",
				"fence.i changed the image under a hart that has run ahead of the clock", uint64(j), s.due[j])
		}
	}
}

// auditDue checks, at a stop, that no runnable hart has run ahead of the
// boundary: a checkpoint taken here carries no due, and a restored run
// visits every runnable hart at its first cycle. Only called in the
// coyotesan build.
func (s *System) auditDue() {
	for i := range s.Harts {
		if s.runnable[i/64]&(1<<(i%64)) != 0 {
			san.Check(s.due[i] <= s.cycle, s.cycle, "core.due",
				"runnable hart due past the cycle the run stopped at", uint64(i), s.due[i])
		}
	}
}

// auditRunnable cross-checks the runnable bitset against per-hart state at
// a quiescent point (no hart is runnable): halted harts must be out of
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
