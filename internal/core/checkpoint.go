package core

import (
	"fmt"

	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/cpu"
	"github.com/coyote-sim/coyote/internal/san"
)

// archive is the machine's layout in a checkpoint: orchestrator
// scheduling state, functional memory, the event calendar, the uncore's
// in-flight transactions, every hart and the shared reservation set.
//
// Trace events are NOT part of it: the Tracer is harness-owned, and the
// harness (package coyote) snapshots its writer alongside this state.
func (s *System) archive(a *ckpt.Archive) {
	a.U64(&s.cycle)
	a.Len(len(s.runnable), "runnable words (core count)")
	for i := range s.runnable {
		a.U64(&s.runnable[i])
	}
	for i := range s.halted {
		a.Bool(&s.halted[i])
	}
	if a.Int(&s.nDone); s.nDone < 0 || s.nDone > len(s.Harts) {
		a.Failf("core: checkpoint nDone %d out of range", s.nDone)
	}
	for i := range s.stallSince {
		a.U64(&s.stallSince[i])
	}
	for i := range s.stallFetch {
		a.Bool(&s.stallFetch[i])
	}
	a.U64(&s.par.stats.SpecQuanta)
	a.U64(&s.par.stats.Commits)
	a.U64(&s.par.stats.Conflicts)
	a.U64(&s.par.stats.Unsafe)

	a.Sub(s.Mem, "core")
	a.Sub(s.Eng, "core")
	a.Sub(s.Uncore, "core")
	for _, h := range s.Harts {
		a.Sub(h, "core")
	}
	a.Sub(s.resv, "core")
}

// CheckpointState serializes the complete machine at an inter-cycle
// boundary. The caller must have stopped the run with RunTo — at that
// boundary speculation is disarmed, every hart's event buffer is drained
// and the calendar holds only future events, which the per-component
// serializers verify.
func (s *System) CheckpointState(w *ckpt.Writer) error {
	if san.Enabled {
		s.auditDue() // the image carries no due: no hart may be ahead of the clock
	}
	return ckpt.Saving(w).Do(s.archive)
}

// RestoreState reloads a CheckpointState image into a freshly constructed
// System with the same Config and loaded program, then resynchronizes the
// coyotesan shadow structures (completion ledger, MSHR sets, directories)
// with the restored machine. Continuing with Run/RunTo reproduces the
// uninterrupted run bit-for-bit.
func (s *System) RestoreState(r *ckpt.Reader) error {
	if s.prog == nil {
		return fmt.Errorf("core: restore before LoadProgram")
	}
	if err := ckpt.Loading(r).Do(s.archive); err != nil {
		return err
	}
	s.decodeText() // the restored text may have been patched (store + fence.i) before the checkpoint

	if s.cycle > 0 && s.Eng.Now() != s.cycle-1 {
		return fmt.Errorf("core: checkpoint clock skew: orchestrator at cycle %d, engine at %d", s.cycle, s.Eng.Now())
	}
	for i, h := range s.Harts {
		if s.halted[i] != h.Halted {
			return fmt.Errorf("core: checkpoint hart %d halted flag disagrees with orchestrator", i)
		}
	}

	if san.Enabled {
		s.resyncSan()
	}
	return nil
}

// resyncSan re-issues the restored machine's outstanding completions into
// the fresh sanitizer ledger: one entry per outstanding register fill
// (the scoreboard's per-register counts ARE the outstanding completion
// multiset) plus the fetch fill when one is pending. MSHR shadow sets and
// tag directories were resynchronized by the uncore/cache restores.
func (s *System) resyncSan() {
	for i, h := range s.Harts {
		for kind := cpu.RegKind(0); kind < 3; kind++ {
			counts := h.PendingCounts(kind)
			for reg, n := range counts {
				key := uint64(i)<<32 | uint64(kind)<<8 | uint64(reg)
				for c := uint16(0); c < n; c++ {
					s.san.Issue(s.cycle, key)
				}
			}
		}
		if h.FetchPending() {
			s.san.Issue(s.cycle, uint64(i)<<32|doneFetch)
		}
	}
}
