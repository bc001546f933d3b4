package core

import (
	"fmt"

	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/cpu"
	"github.com/coyote-sim/coyote/internal/san"
)

// CheckpointState serializes the complete machine at an inter-cycle
// boundary: orchestrator scheduling state, functional memory, the event
// calendar, the uncore's in-flight transactions, every hart and the
// shared reservation set. The caller must have stopped the run with
// RunTo — at that boundary speculation is disarmed, every hart's event
// buffer is drained and the calendar holds only future events, which the
// per-component serializers verify.
//
// Trace events are NOT serialized here: the Tracer is harness-owned, and
// the harness (package coyote) snapshots its writer alongside this state.
func (s *System) CheckpointState(w *ckpt.Writer) error {
	if san.Enabled {
		s.auditDue() // the image carries no due: no hart may be ahead of the clock
	}
	w.U64(s.cycle)
	w.U64(uint64(len(s.runnable)))
	for _, word := range s.runnable {
		w.U64(word)
	}
	for _, h := range s.halted {
		w.Bool(h)
	}
	w.Int(s.nDone)
	for _, c := range s.stallSince {
		w.U64(c)
	}
	for _, f := range s.stallFetch {
		w.Bool(f)
	}
	w.U64(s.par.stats.SpecQuanta)
	w.U64(s.par.stats.Commits)
	w.U64(s.par.stats.Conflicts)
	w.U64(s.par.stats.Unsafe)

	s.Mem.Checkpoint(w)
	if err := s.Eng.Checkpoint(w); err != nil {
		return err
	}
	if err := s.Uncore.Checkpoint(w); err != nil {
		return err
	}
	for _, h := range s.Harts {
		if err := h.Checkpoint(w); err != nil {
			return err
		}
	}
	s.resv.Checkpoint(w)
	return nil
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
	cycle := r.U64()
	nWords := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if nWords != uint64(len(s.runnable)) {
		return fmt.Errorf("core: checkpoint has %d runnable words, this system has %d (core count mismatch)", nWords, len(s.runnable))
	}
	s.cycle = cycle
	for i := range s.runnable {
		s.runnable[i] = r.U64()
	}
	for i := range s.halted {
		s.halted[i] = r.Bool()
	}
	nDone := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nDone < 0 || nDone > len(s.Harts) {
		return fmt.Errorf("core: checkpoint nDone %d out of range", nDone)
	}
	s.nDone = nDone
	for i := range s.stallSince {
		s.stallSince[i] = r.U64()
	}
	for i := range s.stallFetch {
		s.stallFetch[i] = r.Bool()
	}
	s.par.stats.SpecQuanta = r.U64()
	s.par.stats.Commits = r.U64()
	s.par.stats.Conflicts = r.U64()
	s.par.stats.Unsafe = r.U64()

	if err := s.Mem.Restore(r); err != nil {
		return err
	}
	s.decodeText() // the restored text may have been patched (store + fence.i) before the checkpoint
	if err := s.Eng.Restore(r); err != nil {
		return err
	}
	if err := s.Uncore.Restore(r); err != nil {
		return err
	}
	for _, h := range s.Harts {
		if err := h.Restore(r); err != nil {
			return err
		}
	}
	if err := s.resv.Restore(r); err != nil {
		return err
	}

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
