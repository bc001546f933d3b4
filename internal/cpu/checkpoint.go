package cpu

import (
	"fmt"
	"sort"

	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/riscv"
)

// Checkpoint writes the hart's complete architectural and model state to
// w: register files, CSRs, scoreboard, L1 tag state, statistics and the
// console buffer. Decode-derived state (step/block caches, fetch fast
// path) is a pure function of program memory and is rebuilt after
// restore. Checkpoints are taken between instructions at a quantum
// boundary, so speculation must be disarmed, faults absent and the event
// queue drained.
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
	w.U64(h.PC)
	for _, v := range h.X {
		w.U64(v)
	}
	for _, v := range h.F {
		w.U64(v)
	}
	w.Bytes64(h.V)
	w.U64(h.VL)
	w.U64(h.vtypeRaw)

	for k := RegKind(0); k < regKinds; k++ {
		w.U32(h.pending[k])
		for _, c := range h.pendingCount[k] {
			w.U16(c)
		}
	}
	w.Bool(h.fetchPending)
	w.Bool(h.Halted)
	w.U64(h.ExitCode)
	w.U64(h.busyUntil)

	w.U64(h.Stats.Instret)
	w.U64(h.Stats.VectorOps)
	w.U64(h.Stats.StallsRAW)
	w.U64(h.Stats.StallsFetch)
	w.U64(h.Stats.BusyCycles)
	w.U64(h.Stats.LoadMisses)
	w.U64(h.Stats.StoreMisses)
	w.U64(h.Stats.FetchMisses)
	w.U64(h.Stats.Writebacks)
	w.U64(h.Stats.ElemAccesses)

	keys := make([]uint16, 0, len(h.csr))
	//coyote:mapiter-ok keys are sorted before serialization; the encoding is order-canonical
	for k := range h.csr {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.U16(k)
		w.U64(h.csr[k])
	}

	w.Bytes64(h.Console.Bytes())

	if err := h.L1I.Checkpoint(w); err != nil {
		return fmt.Errorf("cpu: hart %d: L1I: %w", h.ID, err)
	}
	if err := h.L1D.Checkpoint(w); err != nil {
		return fmt.Errorf("cpu: hart %d: L1D: %w", h.ID, err)
	}
	return nil
}

// Restore reloads the state written by Checkpoint into a freshly
// constructed hart with the same Config. Decode caches are flushed and
// rebuild on demand; the vtype fields are re-derived from the raw CSR so
// the decoded and raw views cannot diverge.
func (h *Hart) Restore(r *ckpt.Reader) error {
	h.PC = r.U64()
	for i := range h.X {
		h.X[i] = r.U64()
	}
	for i := range h.F {
		h.F[i] = r.U64()
	}
	v := r.Bytes64()
	vl := r.U64()
	vtypeRaw := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if len(v) != len(h.V) {
		return fmt.Errorf("cpu: hart %d: checkpoint V file is %d bytes, this hart has %d (VLenBits mismatch)", h.ID, len(v), len(h.V))
	}
	copy(h.V, v)
	h.VL = vl
	h.vtypeRaw = vtypeRaw
	if t, ok := riscv.DecodeVType(vtypeRaw); ok {
		h.VType = t
	} else {
		h.VType = riscv.VType{}
	}

	for k := RegKind(0); k < regKinds; k++ {
		h.pending[k] = r.U32()
		for i := range h.pendingCount[k] {
			h.pendingCount[k][i] = r.U16()
		}
	}
	h.fetchPending = r.Bool()
	h.Halted = r.Bool()
	h.ExitCode = r.U64()
	h.busyUntil = r.U64()

	h.Stats.Instret = r.U64()
	h.Stats.VectorOps = r.U64()
	h.Stats.StallsRAW = r.U64()
	h.Stats.StallsFetch = r.U64()
	h.Stats.BusyCycles = r.U64()
	h.Stats.LoadMisses = r.U64()
	h.Stats.StoreMisses = r.U64()
	h.Stats.FetchMisses = r.U64()
	h.Stats.Writebacks = r.U64()
	h.Stats.ElemAccesses = r.U64()

	nCSR := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	h.csr = make(map[uint16]uint64, nCSR)
	var lastKey uint16
	for i := uint64(0); i < nCSR; i++ {
		k := r.U16()
		val := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if i > 0 && k <= lastKey {
			return fmt.Errorf("cpu: hart %d: checkpoint CSRs out of order at %#x", h.ID, k)
		}
		lastKey = k
		h.csr[k] = val
	}

	console := r.Bytes64()
	if err := r.Err(); err != nil {
		return err
	}
	h.Console.Reset()
	h.Console.Write(console)

	// Consistency: every pending bit must agree with its fill counts.
	for k := RegKind(0); k < regKinds; k++ {
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

	if err := h.L1I.Restore(r); err != nil {
		return fmt.Errorf("cpu: hart %d: L1I: %w", h.ID, err)
	}
	if err := h.L1D.Restore(r); err != nil {
		return fmt.Errorf("cpu: hart %d: L1D: %w", h.ID, err)
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

// Checkpoint writes the LR/SC reservation set.
func (r *Reservations) Checkpoint(w *ckpt.Writer) {
	w.U64(uint64(len(r.line)))
	for i := range r.line {
		w.U64(r.line[i])
		w.Bool(r.valid[i])
	}
}

// Restore reloads a reservation set of identical size.
func (r *Reservations) Restore(rd *ckpt.Reader) error {
	n := rd.U64()
	if err := rd.Err(); err != nil {
		return err
	}
	if n != uint64(len(r.line)) {
		return fmt.Errorf("cpu: checkpoint has %d reservations, this set has %d", n, len(r.line))
	}
	for i := range r.line {
		r.line[i] = rd.U64()
		r.valid[i] = rd.Bool()
	}
	return rd.Err()
}
