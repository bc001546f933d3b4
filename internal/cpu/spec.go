package cpu

import (
	"math/bits"

	"github.com/coyote-sim/coyote/internal/mem"
	"github.com/coyote-sim/coyote/internal/riscv"
	"github.com/coyote-sim/coyote/internal/san"
)

// Speculative stepping: the parallel orchestrator (internal/core) steps
// runnable harts concurrently inside one simulated cycle, which is only
// legal if a hart's quantum produces *no* shared-state mutation until the
// orchestrator's sequential commit walk decides it is safe. While
// speculation is armed (BeginSpec):
//
//   - memory reads go through a private read-only mem.View and are logged
//     as (addr, size, value) — the value read from *memory*, before the
//     hart's own buffered stores are overlaid;
//   - memory writes are buffered in a store buffer instead of being
//     applied, and LR/SC reservation invalidation is deferred to commit;
//   - atomics (LR/SC/AMO read-modify-write the shared reservation set and
//     memory) refuse to execute speculatively: Step returns
//     StepSpecUnsafe and the orchestrator re-executes the hart serially;
//   - everything private that a quantum can touch is either cheap scalar
//     state (PC, stats, vtype, …), snapshotted wholesale by BeginSpec, or
//     journaled on first write: scalar and FP registers via the same
//     record-on-first-write undo log the vector file and CSR map already
//     used (specSaveX/specSaveF/specSaveV, csrUndo), and the pending-
//     register scoreboard via a per-increment undo list in markPending.
//     AbortSpec replays the journals and restores the hart bit-exactly —
//     rollback cost scales with the instructions the quantum retired, not
//     with the architectural state size.
//
// At commit time ValidateSpec replays the read log against current memory
// (which by then includes every lower-index hart's committed stores). A
// mismatch means the speculative execution consumed a stale value; the
// orchestrator aborts and re-executes the hart in its sequential commit
// slot, so the committed machine state is exactly what the sequential
// interleaving would have produced. Instruction fetches are not in the
// read log: the text image changes only at fence.i, which is spec-unsafe,
// and a speculation armed before one is invalidated by the image's
// generation number.

type specRead struct {
	addr uint64
	val  uint64
	size uint8
}

type specWrite struct {
	addr uint64
	val  uint64
	size uint8
}

type specCSRUndo struct {
	addr    uint16
	existed bool
	old     uint64
}

// pendUndo records one markPending increment performed under armed
// speculation, so AbortSpec can decrement it back out.
type pendUndo struct {
	kind RegKind
	reg  uint8
}

// specState holds the speculation journal and the pre-speculation
// snapshot of the hart's private scalar state. All slices are pooled:
// reset by re-slicing to zero length, grown at most once to the quantum's
// high-water mark.
type specState struct {
	active  bool
	view    mem.View
	viewFor *mem.Memory
	textGen uint64 // Text.gen at BeginSpec

	reads  []specRead
	writes []specWrite

	pc           uint64
	stats        Stats
	fetchPending bool
	vl           uint64
	vtype        riscv.VType
	vtypeRaw     uint64
	busyUntil    uint64
	halted       bool
	exitCode     uint64
	fault        error
	lastFetchLn  uint64
	lastFetchOK  bool
	consoleLen   int
	eventsLen    int

	// Lazy register saves: only the registers an instruction's write
	// masks name are copied, on the first write of the episode (full X+F
	// snapshots were 512 B per hart per cycle; a full V snapshot would be
	// 4 KiB). The masks make the save idempotent, so restore order is
	// irrelevant.
	xSavedMask uint32
	xSaveReg   []uint8
	xSaveVal   []uint64
	fSavedMask uint32
	fSaveReg   []uint8
	fSaveVal   []uint64
	vSavedMask uint32
	vSaveReg   []uint8
	vSave      []byte

	// pendUndo journals scoreboard increments (markPending is the only
	// pending-state mutator that can run during a quantum: completions
	// fire between cycles, on the main goroutine).
	pendUndo []pendUndo

	csrUndo []specCSRUndo

	// Full-snapshot cross-check of the write journals, coyotesan only:
	// AbortSpec compares the journal-restored state against these copies,
	// pinning any instruction whose RegUse write mask under-reports what
	// it mutated.
	sanX       [32]uint64
	sanF       [32]uint64
	sanPend    [regKinds]uint32
	sanPendCnt [regKinds][32]uint16
}

// SpecArmed reports whether the hart is currently executing speculatively.
func (h *Hart) SpecArmed() bool { return h.spec.active }

// SpecReads returns the number of logged speculative reads (test/audit
// visibility; only meaningful between BeginSpec and commit/abort).
func (h *Hart) SpecReads() int { return len(h.spec.reads) }

// BeginSpec arms speculative execution and snapshots every piece of
// private state a quantum can touch.
//
//coyote:allocfree
func (h *Hart) BeginSpec() {
	sp := &h.spec
	if sp.viewFor != h.Mem {
		sp.view = h.Mem.NewView()
		sp.viewFor = h.Mem
	}
	sp.active = true
	sp.textGen = h.text.gen
	sp.reads = sp.reads[:0]
	sp.writes = sp.writes[:0]
	sp.xSavedMask = 0
	sp.xSaveReg = sp.xSaveReg[:0]
	sp.xSaveVal = sp.xSaveVal[:0]
	sp.fSavedMask = 0
	sp.fSaveReg = sp.fSaveReg[:0]
	sp.fSaveVal = sp.fSaveVal[:0]
	sp.vSavedMask = 0
	sp.vSaveReg = sp.vSaveReg[:0]
	sp.vSave = sp.vSave[:0]
	sp.pendUndo = sp.pendUndo[:0]
	sp.csrUndo = sp.csrUndo[:0]

	sp.pc = h.PC
	sp.stats = h.Stats
	sp.fetchPending = h.fetchPending
	sp.vl, sp.vtype, sp.vtypeRaw = h.VL, h.VType, h.vtypeRaw
	sp.busyUntil = h.busyUntil
	sp.halted, sp.exitCode, sp.fault = h.Halted, h.ExitCode, h.Fault
	sp.lastFetchLn, sp.lastFetchOK = h.lastFetchLine, h.lastFetchValid
	sp.consoleLen = h.Console.Len()
	sp.eventsLen = len(h.Events)

	if san.Enabled {
		sp.sanX = h.X
		sp.sanF = h.F
		sp.sanPend = h.pending
		sp.sanPendCnt = h.pendingCount
	}

	h.L1I.BeginSpec()
	h.L1D.BeginSpec()
}

// ValidateSpec replays the read log against current memory and reports
// whether every speculative read still observes the value it consumed
// (and no fence.i has re-decoded the text since the quantum fetched it).
// It must be called after all lower-index harts committed their stores;
// reads go through the private view, so validation allocates no pages.
//
//coyote:allocfree
func (h *Hart) ValidateSpec() bool {
	sp := &h.spec
	if sp.textGen != h.text.gen {
		return false
	}
	for i := range sp.reads {
		r := &sp.reads[i]
		var cur uint64
		switch r.size {
		case 1:
			cur = uint64(sp.view.Read8(r.addr))
		case 2:
			cur = uint64(sp.view.Read16(r.addr))
		case 4:
			cur = uint64(sp.view.Read32(r.addr))
		default:
			cur = sp.view.Read64(r.addr)
		}
		if cur != r.val {
			return false
		}
	}
	return true
}

// CommitSpec applies the buffered stores to shared memory in program
// order, replays the deferred LR/SC reservation invalidations, and keeps
// the speculative cache and private state. Not an allocfree root: a store
// to a fresh page allocates it, exactly as the sequential write path does.
func (h *Hart) CommitSpec() {
	sp := &h.spec
	if san.Enabled {
		san.Check(sp.active, h.sanNow(), "cpu.spec",
			"CommitSpec on a hart with no armed speculation", uint64(h.ID), 0)
	}
	sp.active = false
	for i := range sp.writes {
		w := &sp.writes[i]
		switch w.size {
		case 1:
			h.Mem.Write8(w.addr, uint8(w.val))
		case 2:
			h.Mem.Write16(w.addr, uint16(w.val))
		case 4:
			h.Mem.Write32(w.addr, uint32(w.val))
		default:
			h.Mem.Write64(w.addr, w.val)
		}
		// Exactly the per-store invalidation the sequential path performs
		// (scalar stores pass their start address, vector stores one
		// address per element — matching the write-log granularity).
		h.resv.invalidateStores(h.ID, h.L1D.LineAddr(w.addr))
	}
	h.L1I.CommitSpec()
	h.L1D.CommitSpec()
}

// AbortSpec discards the speculative quantum: scalar snapshot fields are
// restored, the register and scoreboard write-journals replay, buffered
// stores are dropped, appended events are recycled and truncated, and the
// L1 journals roll back.
func (h *Hart) AbortSpec() {
	sp := &h.spec
	if san.Enabled {
		san.Check(sp.active, h.sanNow(), "cpu.spec",
			"AbortSpec on a hart with no armed speculation", uint64(h.ID), 0)
	}
	sp.active = false

	h.PC = sp.pc
	h.Stats = sp.stats
	h.fetchPending = sp.fetchPending
	h.VL, h.VType, h.vtypeRaw = sp.vl, sp.vtype, sp.vtypeRaw
	h.busyUntil = sp.busyUntil
	h.Halted, h.ExitCode, h.Fault = sp.halted, sp.exitCode, sp.fault
	h.lastFetchLine, h.lastFetchValid = sp.lastFetchLn, sp.lastFetchOK

	h.Console.Truncate(sp.consoleLen)
	for _, ev := range h.Events[sp.eventsLen:] {
		if ev.Gather != nil {
			h.RecycleGatherBuf(ev.Gather)
		}
	}
	h.Events = h.Events[:sp.eventsLen]

	// Register write-journals: each register appears at most once (the
	// saved-masks make the save first-write-only), so restore order is
	// irrelevant.
	for i, r := range sp.xSaveReg {
		h.X[r] = sp.xSaveVal[i]
	}
	for i, r := range sp.fSaveReg {
		h.F[r] = sp.fSaveVal[i]
	}
	for i, r := range sp.vSaveReg {
		dst := h.V[uint64(r)*uint64(h.VLenB) : uint64(r+1)*uint64(h.VLenB)]
		copy(dst, sp.vSave[i*int(h.VLenB):(i+1)*int(h.VLenB)])
	}
	// Scoreboard undo: the quantum only ever incremented (completions run
	// between cycles), so decrementing each journaled increment restores
	// the counts, and the bits follow the counts.
	for i := len(sp.pendUndo) - 1; i >= 0; i-- {
		u := sp.pendUndo[i]
		h.pendingCount[u.kind][u.reg]--
		if h.pendingCount[u.kind][u.reg] == 0 {
			h.pending[u.kind] &^= 1 << u.reg
		}
	}
	for i := len(sp.csrUndo) - 1; i >= 0; i-- {
		u := &sp.csrUndo[i]
		if u.existed {
			h.csr[u.addr] = u.old
		} else {
			delete(h.csr, u.addr)
		}
	}

	if san.Enabled {
		// Journal exactness: the rollback must reproduce the full
		// pre-speculation snapshots bit for bit. A mismatch means some
		// instruction wrote a register its RegUse mask does not name.
		san.Check(h.X == sp.sanX, h.sanNow(), "cpu.spec",
			"X-register write-journal rollback diverges from full snapshot", uint64(h.ID), 0)
		san.Check(h.F == sp.sanF, h.sanNow(), "cpu.spec",
			"F-register write-journal rollback diverges from full snapshot", uint64(h.ID), 0)
		san.Check(h.pending == sp.sanPend && h.pendingCount == sp.sanPendCnt,
			h.sanNow(), "cpu.spec",
			"scoreboard undo log rollback diverges from full snapshot", uint64(h.ID), 0)
	}

	h.L1I.RollbackSpec()
	h.L1D.RollbackSpec()
}

// specSaveFor journals the architectural registers op will overwrite,
// before it executes. The RegUse write masks are the exact footprint for
// every speculatively-executable instruction except ecall, whose a0
// return value is written outside its (ofsNone) footprint.
//
//coyote:allocfree
func (h *Hart) specSaveFor(op riscv.Op, use *riscv.RegUse) {
	if use.WritesX != 0 {
		h.specSaveX(use.WritesX)
	}
	if use.WritesF != 0 {
		h.specSaveF(use.WritesF)
	}
	if use.WritesV != 0 {
		h.specSaveV(use.WritesV)
	}
	if op == riscv.OpECALL {
		h.specSaveX(1 << riscv.RegA0)
	}
}

// specSaveX lazily snapshots the scalar registers in mask that have not
// been saved yet this episode.
//
//coyote:allocfree
func (h *Hart) specSaveX(mask uint32) {
	sp := &h.spec
	for m := mask &^ sp.xSavedMask; m != 0; {
		r := uint8(bits.TrailingZeros32(m))
		m &^= 1 << r
		sp.xSavedMask |= 1 << r
		sp.xSaveReg = append(sp.xSaveReg, r)      //coyote:alloc-ok pooled save list; grows to ≤32 entries once, reused for the rest of the run
		sp.xSaveVal = append(sp.xSaveVal, h.X[r]) //coyote:alloc-ok pooled save list; grows to ≤32 entries once, reused for the rest of the run
	}
}

// specSaveF lazily snapshots the FP registers in mask that have not been
// saved yet this episode.
//
//coyote:allocfree
func (h *Hart) specSaveF(mask uint32) {
	sp := &h.spec
	for m := mask &^ sp.fSavedMask; m != 0; {
		r := uint8(bits.TrailingZeros32(m))
		m &^= 1 << r
		sp.fSavedMask |= 1 << r
		sp.fSaveReg = append(sp.fSaveReg, r)      //coyote:alloc-ok pooled save list; grows to ≤32 entries once, reused for the rest of the run
		sp.fSaveVal = append(sp.fSaveVal, h.F[r]) //coyote:alloc-ok pooled save list; grows to ≤32 entries once, reused for the rest of the run
	}
}

// specSaveV lazily snapshots the vector registers in mask that have not
// been saved yet this episode. Called before an instruction that writes
// vector state executes.
//
//coyote:allocfree
func (h *Hart) specSaveV(mask uint32) {
	sp := &h.spec
	for m := mask &^ sp.vSavedMask; m != 0; {
		r := uint8(bits.TrailingZeros32(m))
		m &^= 1 << r
		sp.vSavedMask |= 1 << r
		sp.vSaveReg = append(sp.vSaveReg, r)                                                //coyote:alloc-ok pooled save list; grows to ≤32 entries once, reused for the rest of the run
		sp.vSave = append(sp.vSave, h.V[uint64(r)*uint64(h.VLenB):uint64(r+1)*uint64(h.VLenB)]...) //coyote:alloc-ok pooled register-save arena; bounded by 32×VLenB, reused for the rest of the run
	}
}

// overlay patches the little-endian value v (size n, at addr) with any
// younger bytes from the store buffer, so speculative reads observe the
// hart's own program-order stores.
func (sp *specState) overlay(addr uint64, n uint8, v uint64) uint64 {
	for i := range sp.writes {
		w := &sp.writes[i]
		lo, hi := addr, addr+uint64(n)
		if w.addr > lo {
			lo = w.addr
		}
		if e := w.addr + uint64(w.size); e < hi {
			hi = e
		}
		for b := lo; b < hi; b++ {
			byteVal := uint64(uint8(w.val >> (8 * (b - w.addr))))
			shift := 8 * (b - addr)
			v = v&^(0xff<<shift) | byteVal<<shift
		}
	}
	return v
}

// logRead records one speculative memory read for commit-time validation.
//
//coyote:allocfree
func (sp *specState) logRead(addr uint64, size uint8, val uint64) {
	sp.reads = append(sp.reads, specRead{addr: addr, val: val, size: size}) //coyote:alloc-ok pooled read log; grows to the quantum's high-water mark once, reused for the rest of the run
}

// logWrite buffers one speculative memory write.
//
//coyote:allocfree
func (sp *specState) logWrite(addr uint64, size uint8, val uint64) {
	sp.writes = append(sp.writes, specWrite{addr: addr, val: val, size: size}) //coyote:alloc-ok pooled store buffer; grows to the quantum's high-water mark once, reused for the rest of the run
}

// memRead8 is the hart's memory-load path: direct in normal execution,
// view+log+overlay while speculation is armed. Its siblings below follow
// the same pattern for each width.
func (h *Hart) memRead8(a uint64) uint8 {
	if !h.spec.active {
		return h.Mem.Read8(a)
	}
	v := uint64(h.spec.view.Read8(a))
	h.spec.logRead(a, 1, v)
	return uint8(h.spec.overlay(a, 1, v))
}

func (h *Hart) memRead16(a uint64) uint16 {
	if !h.spec.active {
		return h.Mem.Read16(a)
	}
	v := uint64(h.spec.view.Read16(a))
	h.spec.logRead(a, 2, v)
	return uint16(h.spec.overlay(a, 2, v))
}

func (h *Hart) memRead32(a uint64) uint32 {
	if !h.spec.active {
		return h.Mem.Read32(a)
	}
	v := uint64(h.spec.view.Read32(a))
	h.spec.logRead(a, 4, v)
	return uint32(h.spec.overlay(a, 4, v))
}

func (h *Hart) memRead64(a uint64) uint64 {
	if !h.spec.active {
		return h.Mem.Read64(a)
	}
	v := h.spec.view.Read64(a)
	h.spec.logRead(a, 8, v)
	return h.spec.overlay(a, 8, v)
}

func (h *Hart) memWrite8(a uint64, v uint8) {
	if !h.spec.active {
		h.Mem.Write8(a, v)
		return
	}
	h.spec.logWrite(a, 1, uint64(v))
}

func (h *Hart) memWrite16(a uint64, v uint16) {
	if !h.spec.active {
		h.Mem.Write16(a, v)
		return
	}
	h.spec.logWrite(a, 2, uint64(v))
}

func (h *Hart) memWrite32(a uint64, v uint32) {
	if !h.spec.active {
		h.Mem.Write32(a, v)
		return
	}
	h.spec.logWrite(a, 4, uint64(v))
}

func (h *Hart) memWrite64(a uint64, v uint64) {
	if !h.spec.active {
		h.Mem.Write64(a, v)
		return
	}
	h.spec.logWrite(a, 8, v)
}

// storeInvalidate clears other harts' LR reservations on a stored-to
// line. Reservations are shared state, so while speculation is armed the
// invalidation is deferred: CommitSpec replays it from the store buffer.
//
//coyote:allocfree
func (h *Hart) storeInvalidate(addr uint64) {
	if h.spec.active {
		return
	}
	h.resv.invalidateStores(h.ID, h.L1D.LineAddr(addr))
}
