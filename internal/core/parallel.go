package core

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/coyote-sim/coyote/internal/cpu"
	"github.com/coyote-sim/coyote/internal/san"
)

// Parallel orchestrator (Config.Workers > 1): the per-cycle functional
// phase is split in two.
//
// Phase 1 — speculative execution. The runnable-hart bitset is expanded
// into an ascending index list and sharded into contiguous ranges, one per
// worker. Each worker steps its harts' interleave quanta speculatively
// (cpu.BeginSpec): memory reads go through a private read-only view and
// are logged, writes land in a per-hart store buffer, misses/trace events
// accumulate in the hart's private event buffer, and statistics mutate
// only snapshotted hart state. Nothing shared is written, so workers need
// no locks.
//
// Phase 2 — sequential commit, in hart-index order. For each hart the
// walk validates the read log against current memory — which already
// contains every lower-index hart's committed stores, so a mismatch is
// precisely a read-write conflict with a lower-index hart. Valid
// speculation commits: buffered stores apply in program order, deferred
// LR/SC invalidations replay, and the hart's events dispatch into the
// (single-threaded) uncore. Invalid or spec-unsafe (atomic) speculation
// rolls back and the hart re-executes serially in its slot via the exact
// sequential stepHart path. Write-write conflicts need no detection at
// all: in-order commit makes the higher-index hart's store win, which is
// what the sequential interleaving produces anyway.
//
// Because commit order equals sequential step order, every committed
// value, statistic, dispatch and trace event is bit-identical to the
// Workers=1 run — golden .prv traces and cycle counts do not change with
// the worker count (DESIGN.md §5).

// ParStats counts parallel-orchestrator outcomes. All zero when
// Config.Workers <= 1. The counters vary with the worker count (more
// workers, more speculation) and are deliberately excluded from the
// golden determinism surface.
type ParStats struct {
	SpecQuanta uint64 // hart-quanta executed speculatively
	Commits    uint64 // speculations validated and committed
	Conflicts  uint64 // rollbacks due to a stale read (lower-index hart wrote it)
	Unsafe     uint64 // rollbacks due to spec-unsafe instructions (atomics)
}

// parState is the worker pool plus per-cycle shard bookkeeping. The pool
// uses persistent goroutines with an atomic epoch broadcast and a
// countdown barrier: a simulated cycle is far too short to amortize
// channel round trips, and the sync/atomic operations carry the
// happens-before edges the race detector checks.
type parState struct {
	workers int
	list    []int         // runnable hart indices this cycle, ascending
	outcome []cpu.StepResult // each hart's speculative quantum result, indexed like list
	stats   ParStats

	started bool
	wg      sync.WaitGroup
	epoch   atomic.Uint64 // bumped to publish a new job to the helpers
	pending atomic.Int64  // helpers still executing the current job
	quit    bool          // read by helpers after an epoch bump
	n       int           // len(list) for the current job
}

// startWorkers launches the helper goroutines (the main goroutine acts as
// worker 0). Run pairs it with stopWorkers so a Sweep of many Systems
// never leaks pool goroutines.
func (s *System) startWorkers() {
	par := &s.par
	par.workers = s.cfg.Workers
	if par.workers > len(s.Harts) {
		par.workers = len(s.Harts)
	}
	if cap(par.outcome) < len(s.Harts) {
		par.outcome = make([]cpu.StepResult, len(s.Harts))
	}
	par.outcome = par.outcome[:len(s.Harts)]
	par.quit = false
	par.started = true
	par.wg.Add(par.workers - 1)
	for w := 1; w < par.workers; w++ {
		go s.workerLoop(w)
	}
}

// stopWorkers shuts the pool down and waits for every helper to exit.
func (s *System) stopWorkers() {
	par := &s.par
	if !par.started {
		return
	}
	par.quit = true
	par.epoch.Add(1)
	par.wg.Wait()
	par.started = false
}

// workerLoop is one helper goroutine: wait for an epoch bump, run the
// shard, signal completion. The epoch/pending atomics provide the
// happens-before edges for the job fields and the harts' state.
func (s *System) workerLoop(w int) {
	defer s.par.wg.Done()
	last := uint64(0)
	for {
		last = s.awaitEpoch(last)
		if s.par.quit {
			return
		}
		s.runShard(w)
		s.par.pending.Add(-1)
	}
}

// awaitEpoch spins briefly, then yields, until the epoch moves past last.
// The Gosched is mandatory, not a nicety: on a GOMAXPROCS=1 host a pure
// spin would never let the goroutine that bumps the epoch run.
func (s *System) awaitEpoch(last uint64) uint64 {
	for spins := 0; ; spins++ {
		if e := s.par.epoch.Load(); e != last {
			return e
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// runShard speculatively steps worker w's contiguous slice of the
// runnable list. Also called inline by the main goroutine as worker 0.
func (s *System) runShard(w int) {
	par := &s.par
	lo := w * par.n / par.workers
	hi := (w + 1) * par.n / par.workers
	for k := lo; k < hi; k++ {
		s.specStepHart(k)
	}
}

// specStepHart runs one hart's interleave quantum speculatively. It
// executes on a worker goroutine and must not touch any state outside the
// hart itself. Dispatch is deferred to the commit walk; the events simply
// pile up in the hart's buffer in program order, which is the same
// per-hart contiguous order the sequential loop dispatches them in.
//coyote:specphase
func (s *System) specStepHart(k int) {
	par := &s.par
	h := s.Harts[par.list[k]]
	h.BeginSpec()
	if !h.BlockEngineEnabled() {
		// Reference per-instruction engine (differential testing).
		var res cpu.StepResult
		for q := 0; q < s.cfg.InterleaveQuantum; q++ {
			res = h.Step(s.cycle)
			if res != cpu.StepExecuted {
				break
			}
		}
		par.outcome[k] = res //coyote:specwrite-ok worker-private outcome slot, read only by the commit phase after the barrier
		return
	}
	rem := s.cfg.InterleaveQuantum
	res := cpu.StepExecuted
	for rem > 0 {
		var n int
		n, res = h.StepBlock(s.cycle, rem)
		rem -= n
		if res != cpu.StepExecuted {
			break
		}
		// res == StepExecuted implies n ≥ 1, so rem strictly decreases.
	}
	par.outcome[k] = res //coyote:specwrite-ok worker-private outcome slot, read only by the commit phase after the barrier
}

// stepCycleParallel runs one simulated cycle's functional phase on the
// worker pool: speculative parallel execution, then the sequential commit
// walk. Committed machine state is bit-identical to stepCycleSeq for any
// worker count. Every runnable hart is visited every cycle: nothing runs
// ahead of the clock under speculation.
func (s *System) stepCycleParallel() error {
	par := &s.par
	par.list = par.list[:0]
	for w, word := range s.runnable {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			par.list = append(par.list, w*64+b) //coyote:alloc-ok pooled shard list; grows to Cores once, reused every cycle
		}
	}
	n := len(par.list)
	if n == 0 {
		return nil
	}
	if n == 1 {
		// A single runnable hart gains nothing from speculation; the
		// sequential path commits the identical state with less work.
		i := par.list[0]
		return s.stepHart(i, s.Harts[i])
	}

	// Phase 1: speculative execution across the pool.
	par.n = n
	par.pending.Store(int64(par.workers - 1))
	par.epoch.Add(1)
	s.runShard(0)
	for spins := 0; par.pending.Load() > 0; spins++ {
		if spins > 64 {
			runtime.Gosched()
		}
	}
	par.stats.SpecQuanta += uint64(n)

	// Phase 2: sequential commit in hart-index order.
	for k, i := range par.list {
		h := s.Harts[i]
		res := par.outcome[k]
		if res == cpu.StepSpecUnsafe || !h.ValidateSpec() {
			if res == cpu.StepSpecUnsafe {
				par.stats.Unsafe++
			} else {
				par.stats.Conflicts++
			}
			h.AbortSpec()
			if err := s.stepHart(i, h); err != nil {
				s.abortSpecsFrom(k + 1)
				return err
			}
			continue
		}
		h.CommitSpec()
		par.stats.Commits++
		s.host.Visits++
		if len(h.Events) > 0 {
			s.dispatch(h)
		}
		if err := s.applyStepResult(i, h, res); err != nil {
			s.abortSpecsFrom(k + 1) //coyote:mut-survivor out-of-scope: post-fatal unwind; Run returns the error and nothing after the failed slot is committed or observable
			return err
		}
		if san.Enabled {
			san.Check(!h.SpecArmed(), s.cycle, "core.parallel",
				"hart left speculation armed after its commit slot", uint64(i), 0)
		}
	}
	return nil
}

// abortSpecsFrom rolls back any still-armed speculations when the commit
// walk bails out early on a fault, leaving every hart consistent.
func (s *System) abortSpecsFrom(k int) {
	for ; k < len(s.par.list); k++ {
		h := s.Harts[s.par.list[k]]
		if h.SpecArmed() {
			h.AbortSpec()
		}
	}
}
