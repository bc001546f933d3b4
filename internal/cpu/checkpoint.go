package cpu

import (
	"fmt"

	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/riscv"
)

// archive is the hart's layout in a checkpoint: register files, vector
// state, scoreboard, run state, statistics, CSRs, the console buffer and
// the two L1 tag stores. The shared pre-decoded text image and the fetch
// fast path are not part of it: both are derived from program memory.
func (h *Hart) archive(a *ckpt.Archive) {
	a.U64(&h.PC)
	for i := range h.X {
		a.U64(&h.X[i])
	}
	for i := range h.F {
		a.U64(&h.F[i])
	}
	v := h.V
	if a.Bytes(&v); len(v) != len(h.V) {
		a.Failf("cpu: hart %d: checkpoint V file is %d bytes, this hart has %d (VLenBits mismatch)", h.ID, len(v), len(h.V))
	} else {
		copy(h.V, v)
	}
	a.U64(&h.VL)
	a.U64(&h.vtypeRaw)

	for k := range h.pending {
		a.U32(&h.pending[k])
		for i := range h.pendingCount[k] {
			a.U16(&h.pendingCount[k][i])
		}
	}
	a.Bool(&h.fetchPending)
	a.Bool(&h.Halted)
	a.U64(&h.ExitCode)
	a.U64(&h.busyUntil)

	a.U64(&h.Stats.Instret)
	a.U64(&h.Stats.VectorOps)
	a.U64(&h.Stats.StallsRAW)
	a.U64(&h.Stats.StallsFetch)
	a.U64(&h.Stats.BusyCycles)
	a.U64(&h.Stats.LoadMisses)
	a.U64(&h.Stats.StoreMisses)
	a.U64(&h.Stats.FetchMisses)
	a.U64(&h.Stats.Writebacks)
	a.U64(&h.Stats.ElemAccesses)

	ckpt.Map(a, &h.csr, 10, func(a *ckpt.Archive, _ uint16, v *uint64) { a.U64(v) })

	console := h.Console.Bytes()
	if a.Bytes(&console); a.Loading() {
		h.Console.Reset()
		h.Console.Write(console)
	}
	a.Sub(h.L1I, "cpu: hart %d: L1I", h.ID)
	a.Sub(h.L1D, "cpu: hart %d: L1D", h.ID)
}

// Checkpoint writes the hart to w. Checkpoints are taken between
// instructions at a quantum boundary, so speculation must be disarmed,
// faults absent and the event queue drained.
func (h *Hart) Checkpoint(w *ckpt.Writer) error {
	if h.spec.active {
		return fmt.Errorf("cpu: hart %d: checkpoint while speculation is armed", h.ID)
	}
	if h.Fault != nil {
		return fmt.Errorf("cpu: hart %d: checkpoint of a faulted hart", h.ID)
	}
	if len(h.Events) != 0 {
		return fmt.Errorf("cpu: hart %d: checkpoint with %d undrained memory events", h.ID, len(h.Events))
	}
	return ckpt.Saving(w).Do(h.archive)
}

// Restore reloads the state written by Checkpoint into a freshly
// constructed hart with the same Config. The vtype fields are re-derived
// from the raw CSR so the decoded and raw views cannot diverge.
func (h *Hart) Restore(r *ckpt.Reader) error {
	if err := ckpt.Loading(r).Do(h.archive); err != nil {
		return err
	}
	h.VType, _ = riscv.DecodeVType(h.vtypeRaw)

	// Consistency: every pending bit must agree with its fill counts.
	for k := range h.pending {
		var want uint32
		for i, c := range h.pendingCount[k] {
			if c > 0 {
				want |= 1 << i
			}
		}
		if want != h.pending[k] {
			return fmt.Errorf("cpu: hart %d: checkpoint scoreboard kind %d: pending bits %#x disagree with counts %#x", h.ID, k, h.pending[k], want)
		}
	}

	h.Fault = nil
	h.Events = h.Events[:0]
	h.lastFetchValid = false // the fetch fast path is not checkpointed
	return nil
}

// PendingCounts exposes the scoreboard's outstanding-fill counts for one
// register kind. The orchestrator uses it after restore to resynchronize
// the coyotesan in-flight ledger with the restored scoreboard.
func (h *Hart) PendingCounts(kind RegKind) [32]uint16 { return h.pendingCount[kind] }

// FetchPending reports whether an instruction-fetch fill is outstanding.
func (h *Hart) FetchPending() bool { return h.fetchPending }

func (r *Reservations) archive(a *ckpt.Archive) {
	a.Len(len(r.line), "reservations")
	for i := range r.line {
		a.U64(&r.line[i])
		a.Bool(&r.valid[i])
	}
}

// Checkpoint writes the LR/SC reservation set.
func (r *Reservations) Checkpoint(w *ckpt.Writer) error { return ckpt.Saving(w).Do(r.archive) }

// Restore reloads a reservation set of identical size.
func (r *Reservations) Restore(rd *ckpt.Reader) error { return ckpt.Loading(rd).Do(r.archive) }
