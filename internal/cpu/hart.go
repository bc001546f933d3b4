// Package cpu implements the functional RISC-V hart model — the role Spike
// plays inside Coyote. A Hart executes one instruction per Step against the
// shared functional memory and models its private L1 instruction and data
// caches; L1 misses are surfaced to the orchestrator as MemEvents to be
// injected into the event-driven uncore. Loads that miss mark their
// destination registers *pending*; the hart keeps executing until an
// instruction names a pending register (RAW/WAW), at which point Step
// reports a stall and the orchestrator deactivates the core until the miss
// completes (paper §III-A).
package cpu

import (
	"bytes"
	"fmt"

	"github.com/coyote-sim/coyote/internal/cache"
	"github.com/coyote-sim/coyote/internal/mem"
	"github.com/coyote-sim/coyote/internal/riscv"
	"github.com/coyote-sim/coyote/internal/san"
)

// RegKind selects one of the three architectural register files.
type RegKind uint8

const (
	RegX RegKind = iota
	RegF
	RegV
	regKinds
)

// MemEvent is an L1 miss or writeback that must be serviced by the uncore.
type MemEvent struct {
	Hart    int
	Addr    uint64 // line base address
	Write   bool   // true for stores/writebacks (no completion needed)
	Fetch   bool   // instruction-fetch miss
	Dest    RegKind
	DestReg uint8
	HasDest bool // completion must call Hart.CompleteFill(Dest, DestReg)

	// Gather, when non-nil, is an MCPU scatter/gather descriptor (the
	// paper's §I memory-controller CPUs): the element addresses of one
	// indexed vector access, bypassing the cache hierarchy. Addr is
	// unused; one completion covers the whole descriptor.
	Gather []uint64
}

// StepResult reports what happened during one Step.
type StepResult uint8

const (
	// StepExecuted: one instruction retired.
	StepExecuted StepResult = iota
	// StepStalledRAW: instruction names a register with a pending fill.
	StepStalledRAW
	// StepStalledFetch: instruction fetch missed L1I; waiting for the line.
	StepStalledFetch
	// StepBusy: a multi-cycle (vector) instruction still occupies the core.
	StepBusy
	// StepHalted: the hart has exited.
	StepHalted
	// StepFault: illegal instruction or trap; hart is halted with an error.
	StepFault
	// StepSpecUnsafe: the next instruction cannot run speculatively
	// (atomics read-modify-write shared reservation state and memory;
	// fence.i re-decodes the text image all harts share).
	// Only returned while speculation is armed (BeginSpec); the
	// orchestrator aborts the speculation and re-executes the hart
	// serially in its commit slot.
	StepSpecUnsafe
)

// Config holds per-hart model parameters.
type Config struct {
	VLenBits    uint // vector register length in bits (power of two ≥ 64)
	VectorLanes uint // parallel lanes; a vector op occupies ceil(vl/lanes) cycles
	L1I, L1D    cache.Config

	// MCPUOffload routes indexed (gather/scatter) vector accesses to the
	// memory-controller CPUs as single descriptors instead of per-element
	// cache transactions — the ACME architecture's aggregate-semantics
	// memory path (paper §I).
	MCPUOffload bool

	// DisableBlockCache forces the per-instruction reference engine:
	// StepBlock degrades to single Step calls and the orchestrator falls
	// back to the classic step-dispatch loop. Simulated timing is identical
	// either way — the differential golden tests run both engines against
	// each other to prove it.
	DisableBlockCache bool
}

// DefaultConfig mirrors the ACME VAS tile core: 16-lane VPU and 16 KiB L1s.
func DefaultConfig() Config {
	return Config{
		VLenBits:    1024,
		VectorLanes: 16,
		L1I:         cache.Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64},
		L1D:         cache.Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64, WriteBack: true},
	}
}

// Stats counts per-hart execution events.
type Stats struct {
	Instret      uint64 // instructions retired
	VectorOps    uint64
	StallsRAW    uint64 // cycles lost to pending-register dependencies
	StallsFetch  uint64 // cycles lost waiting on L1I fills
	BusyCycles   uint64 // extra cycles occupied by multi-cycle vector ops
	LoadMisses   uint64
	StoreMisses  uint64
	FetchMisses  uint64
	Writebacks   uint64
	ElemAccesses uint64 // vector element memory accesses
}

// Reservations tracks LR/SC reservations across harts; any store to a
// reserved line (by any hart) invalidates the reservation.
type Reservations struct {
	line  []uint64
	valid []bool
}

// NewReservations sizes the set for n harts.
func NewReservations(n int) *Reservations {
	return &Reservations{line: make([]uint64, n), valid: make([]bool, n)}
}

//coyote:specwrite-ok reservation state is replay-deterministic: an aborted quantum re-runs the same LR sequence, and cross-hart invalidation is deferred while speculation is armed (see spec.go)
func (r *Reservations) set(hart int, line uint64) {
	r.line[hart] = line
	r.valid[hart] = true
}

//coyote:specwrite-ok reservation state is replay-deterministic: an aborted quantum re-runs the same SC sequence (see spec.go)
func (r *Reservations) check(hart int, line uint64) bool {
	ok := r.valid[hart] && r.line[hart] == line
	r.valid[hart] = false // SC always clears the reservation
	return ok
}

// invalidateStores drops every reservation matching a stored-to line,
// except the storing hart's own (its SC consumed it already).
//
//coyote:specwrite-ok commit-phase helper: the spec layer defers store invalidation until the quantum commits (see spec.go storeInvalidate)
func (r *Reservations) invalidateStores(storer int, line uint64) {
	for i := range r.valid {
		if i != storer && r.valid[i] && r.line[i] == line {
			r.valid[i] = false
		}
	}
}

// Hart is one simulated RISC-V core: architectural state + L1 models.
type Hart struct {
	// What every StepBlock call reads comes first and fills one host cache
	// line, and spec's armed flag opens the next: with 128 harts taking
	// turns each cycle, a hart starts its turn with every line of its own
	// cold in the host's cache, so it should need few.
	PC        uint64
	busyUntil uint64 // absolute cycle until which the core is occupied
	// lastFetchLine short-circuits the L1I tag lookup for straight-line
	// fetches from the same cache line.
	lastFetchLine uint64
	// text is the pre-decoded image of the program this hart runs, shared
	// with every other hart of its System and read-only during a run
	// (text.go).
	text     *Text
	L1I, L1D *cache.Cache
	// Pending-register scoreboard: bit set while ≥1 fill is outstanding.
	pending        [regKinds]uint32
	Halted         bool
	fetchPending   bool
	lastFetchValid bool
	blockOff       bool

	// spec holds the speculative-execution journal and rollback snapshot
	// used by the parallel orchestrator (see spec.go).
	spec specState

	ID int
	X  [32]uint64
	F  [32]uint64 // raw IEEE bits; singles are NaN-boxed

	// Vector state. V is the flat register file: 32 registers of VLenB
	// bytes each; register groups (LMUL>1) are contiguous slices of it.
	V        []byte
	VLenB    uint
	VL       uint64
	VType    riscv.VType
	vtypeRaw uint64
	lanes    uint

	Mem  *mem.Memory
	resv *Reservations

	mcpuOffload bool

	pendingCount [regKinds][32]uint16 // outstanding fills behind each pending bit

	ExitCode uint64
	Fault    error

	// Events produced by the last Step; the orchestrator drains this.
	Events []MemEvent

	Console bytes.Buffer // bytes written via the write "syscall"

	Stats Stats

	// cold is a one-instruction image of the hart's own, decoded anew at
	// every fetch from a PC that text does not cover.
	cold Text //coyote:specwrite-ok per-fetch scratch, rebuilt from memory before each use and dead after it

	// scratch buffers reused across steps to avoid allocation
	lineScratch []uint64  //coyote:specwrite-ok per-step scratch, dead before the next instruction
	oneAddr     [1]uint64 //coyote:specwrite-ok per-step scratch, dead before the next instruction
	addrScratch []uint64  //coyote:specwrite-ok per-step scratch, dead before the next instruction

	// gatherPool recycles MemEvent.Gather descriptor slices. The
	// orchestrator returns a descriptor with RecycleGatherBuf once the
	// uncore has consumed it, so steady-state MCPU offload allocates no
	// per-access buffers.
	gatherPool [][]uint64 //coyote:specwrite-ok buffer pool; recycled descriptor contents are dead once the uncore consumes them

	// CSR backing store for CSRs without dedicated fields.
	csr map[uint16]uint64

	// warmLine, when non-nil, puts the hart in functional-warming mode:
	// post-L1 traffic (misses, write-allocate fetches and dirty
	// writebacks) is reported to the sink at line granularity and
	// completes immediately — no MemEvent is emitted, no register is
	// marked pending and fetch misses do not stall. Timed simulation
	// never arms it; see SetWarmSink.
	warmLine func(addr uint64, write bool)

	// warmSeen is a hart-level direct-mapped line filter in front of the
	// whole functional-warming data path: a read whose line is recorded
	// here is answered as an L1D hit without touching the cache or the
	// uncore at all. Unlike the L1D's own warming filter it is immune to
	// set conflicts (slots are chosen by a multiplicative hash of the
	// full line address), so strided reads that thrash a few L1D sets
	// still collapse to one lookup each. Writes and filter misses take
	// the exact path and then claim the slot. Same contract as
	// cache.WarmAccess: warming-region replacement state and hit counts
	// are approximate by design; the downstream hierarchy still sees
	// each distinct line at least once per warming interval, which is
	// what warming needs. Reset by SetWarmSink, so timed simulation and
	// checkpoints never observe it. Bypassed under coyotesan so the
	// shadow directory sees every access.
	warmSeen []uint64

	// CycleFn lets the orchestrator expose the global cycle counter via
	// the cycle/time CSRs. Optional.
	CycleFn func() uint64
}

// NewHart builds a hart with the given ID and config, wired to shared
// functional memory and a shared reservation set (may be nil for
// single-hart use).
func NewHart(id int, cfg Config, m *mem.Memory, resv *Reservations) (*Hart, error) {
	if cfg.VLenBits < 64 || cfg.VLenBits&(cfg.VLenBits-1) != 0 {
		return nil, fmt.Errorf("cpu: VLenBits %d must be a power of two ≥ 64", cfg.VLenBits)
	}
	if cfg.VectorLanes == 0 {
		return nil, fmt.Errorf("cpu: VectorLanes must be positive")
	}
	l1i, err := cache.New(cfg.L1I)
	if err != nil {
		return nil, fmt.Errorf("cpu: L1I: %w", err)
	}
	l1d, err := cache.New(cfg.L1D)
	if err != nil {
		return nil, fmt.Errorf("cpu: L1D: %w", err)
	}
	if resv == nil {
		resv = NewReservations(id + 1)
	}
	h := &Hart{
		ID:          id,
		V:           make([]byte, 32*cfg.VLenBits/8),
		VLenB:       cfg.VLenBits / 8,
		lanes:       cfg.VectorLanes,
		Mem:         m,
		L1I:         l1i,
		L1D:         l1d,
		resv:        resv,
		mcpuOffload: cfg.MCPUOffload,
		text:        &Text{},
		cold:        Text{code: make([]blockInstr, 1)},
		blockOff:    cfg.DisableBlockCache,
		csr:         make(map[uint16]uint64),
	}
	return h, nil
}

// SetWarmSink arms (non-nil) or disarms (nil) functional-warming mode.
// While armed, every post-L1 line transfer that timed mode would turn
// into a MemEvent is delivered to warm instead and completes
// immediately; the MCPU gather path is the one exception — it still
// emits its descriptor event, because gathers bypass L1/L2 and the
// orchestrator's functional dispatcher warms the memory side from the
// descriptor. The caller must disarm before resuming timed simulation.
// warmSeen filter geometry: 512 slots is one 4 KiB page of filter state,
// and a slot holds line|1 (line addresses are line-aligned, so the low
// bit doubles as the occupancy marker).
const (
	warmSeenBits  = 9
	warmSeenSlots = 1 << warmSeenBits
)

func (h *Hart) SetWarmSink(warm func(addr uint64, write bool)) {

	h.warmLine = warm
	if warm != nil && h.warmSeen == nil {
		h.warmSeen = make([]uint64, warmSeenSlots)
	}
	clear(h.warmSeen)
}

// BlockEngineEnabled reports whether the superblock engine is active (the
// orchestrator uses it to pick between the block loop and the reference
// per-instruction loop).
func (h *Hart) BlockEngineEnabled() bool { return !h.blockOff }

// BusyUntil returns the cycle at which a multi-cycle vector instruction
// releases the core (0 when idle). The orchestrator uses it to fast-forward.
func (h *Hart) BusyUntil() uint64 { return h.busyUntil }

// AddStallCycles credits stall cycles the orchestrator observed while the
// core was parked (Step is not called on inactive cores, so the per-Step
// counters alone would undercount the stalled time).
//
//coyote:allocfree
func (h *Hart) AddStallCycles(fetch bool, n uint64) {
	if fetch {
		h.Stats.StallsFetch += n
	} else {
		h.Stats.StallsRAW += n
	}
}

// VLMax returns the maximum vl for the current vtype.
func (h *Hart) VLMax() uint64 {
	if h.VType.SEW == 0 {
		return 0
	}
	return uint64(h.VLenB*8) * uint64(h.VType.LMUL) / uint64(h.VType.SEW)
}

// Pending reports whether register (kind, r) has outstanding fills.
func (h *Hart) Pending(kind RegKind, r uint8) bool {
	return h.pending[kind]&(1<<r) != 0
}

// PendingAny reports whether any register has outstanding fills.
func (h *Hart) PendingAny() bool {
	return h.pending[RegX]|h.pending[RegF]|h.pending[RegV] != 0 || h.fetchPending
}

// CompleteFill is called by the orchestrator when a miss carrying a
// destination register finishes. When the last outstanding fill for the
// register lands, the pending bit clears and the core may wake up.
//
//coyote:allocfree
func (h *Hart) CompleteFill(kind RegKind, r uint8) {
	if h.pendingCount[kind][r] == 0 {
		panic(fmt.Sprintf("cpu: hart %d: stray completion for %v%d", h.ID, kind, r))
	}
	h.pendingCount[kind][r]--
	if h.pendingCount[kind][r] == 0 {
		h.pending[kind] &^= 1 << r
	}
	if san.Enabled {
		san.Check((h.pending[kind]&(1<<r) != 0) == (h.pendingCount[kind][r] > 0),
			h.sanNow(), "cpu.scoreboard", "pending bit disagrees with outstanding-fill count after completion",
			uint64(h.ID), uint64(kind)<<8|uint64(r))
	}
}

// sanNow returns the orchestrator cycle for sanitizer reports (0 when the
// hart runs standalone, e.g. in unit tests). Only called under san.Enabled.
func (h *Hart) sanNow() uint64 {
	if h.CycleFn != nil {
		return h.CycleFn()
	}
	return 0
}

// CompleteFetch is called when an instruction-fetch miss is serviced.
//
//coyote:allocfree
func (h *Hart) CompleteFetch() { h.fetchPending = false }

// getGatherBuf returns a pooled descriptor slice with the given length.
func (h *Hart) getGatherBuf(n int) []uint64 {
	if ln := len(h.gatherPool); ln > 0 {
		buf := h.gatherPool[ln-1]
		h.gatherPool = h.gatherPool[:ln-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]uint64, n)
}

// RecycleGatherBuf returns a MemEvent.Gather descriptor to the hart's
// pool. Callers must not retain the slice afterwards.
//
//coyote:allocfree
func (h *Hart) RecycleGatherBuf(buf []uint64) {
	h.gatherPool = append(h.gatherPool, buf)
}

func (h *Hart) markPending(kind RegKind, r uint8) {
	if kind == RegX && r == 0 {
		return
	}
	if h.spec.active {
		h.spec.pendUndo = append(h.spec.pendUndo, pendUndo{kind: kind, reg: r}) //coyote:alloc-ok pooled undo log; grows to the quantum's high-water mark once, reused for the rest of the run
	}
	h.pending[kind] |= 1 << r
	h.pendingCount[kind][r]++
	if san.Enabled {
		// A zero count here means the uint16 wrapped: 65535 fills were
		// already outstanding on one register, which is impossible traffic.
		san.Check(h.pendingCount[kind][r] != 0,
			h.sanNow(), "cpu.scoreboard", "outstanding-fill count overflowed",
			uint64(h.ID), uint64(kind)<<8|uint64(r))
	}
}

// emit appends a memory event for the orchestrator.
//
//coyote:allocfree
func (h *Hart) emit(ev MemEvent) {
	ev.Hart = h.ID
	h.Events = append(h.Events, ev)
}

// Step attempts to execute one instruction at cycle now. Produced memory
// events are appended to h.Events (caller drains). The result tells the
// orchestrator whether to keep the core active.
func (h *Hart) Step(now uint64) StepResult {
	if h.Halted {
		return StepHalted
	}
	if h.fetchPending {
		h.Stats.StallsFetch++
		return StepStalledFetch
	}
	if now < h.busyUntil {
		h.Stats.BusyCycles++
		return StepBusy
	}

	// Fetch timing through L1I (line granularity), with a fast path for
	// consecutive fetches from the same line.
	line := h.L1I.LineAddr(h.PC)
	if h.lastFetchValid && line == h.lastFetchLine {
		h.L1I.Stats.Hits++
	} else if res := h.L1I.Access(h.PC, false); res.Hit {
		h.lastFetchLine = line
		h.lastFetchValid = true
	} else {
		h.Stats.FetchMisses++
		if h.warmLine != nil {
			// Functional mode: Access already installed the line; warm the
			// downstream hierarchy and fetch without stalling.
			h.lastFetchLine = line
			h.lastFetchValid = true
			h.warmLine(line, false)
		} else {
			h.lastFetchValid = false
			h.fetchPending = true
			h.emit(MemEvent{Addr: line, Fetch: true})
			h.Stats.StallsFetch++
			return StepStalledFetch
		}
	}

	t := h.text
	i := t.slot(h.PC)
	if i >= uint64(len(t.code)) {
		t, i = h.atCold(h.PC), 0
	}
	bi := &t.code[i]
	if san.Enabled {
		h.sanCheckFetch(h.PC, bi)
	}
	in := bi.in
	if in.Op == riscv.OpInvalid {
		_, err := riscv.Decode(bi.raw)
		h.Fault = fmt.Errorf("hart %d: pc=%#x: %w", h.ID, h.PC, err) //coyote:alloc-ok fault path is terminal, the run ends here
		h.Halted = true
		return StepFault
	}
	use := &bi.use
	if bi.isVec {
		use = &t.vuse[bi.vuse+lmulIndex(h.VType.LMUL)]
	}

	// Scoreboard check: stall on any pending source or destination.
	if (use.ReadsX|use.WritesX)&h.pending[RegX] != 0 ||
		(use.ReadsF|use.WritesF)&h.pending[RegF] != 0 ||
		(use.ReadsV|use.WritesV)&h.pending[RegV] != 0 {
		h.Stats.StallsRAW++
		return StepStalledRAW
	}

	if h.spec.active {
		// fence.i rewrites the image every hart reads: serial path only.
		if in.Op.Classify()&riscv.ClassAtomic != 0 || in.Op == riscv.OpFENCEI {
			return StepSpecUnsafe
		}
		h.specSaveFor(in.Op, use)
	}

	nextPC := h.PC + 4
	res := h.execute(in, &nextPC, now)
	if res == StepExecuted {
		h.PC = nextPC
		h.Stats.Instret++
		if in.Op.IsVector() {
			h.Stats.VectorOps++
			if occ := h.vectorOccupancy(in); occ > 1 {
				h.busyUntil = now + occ
			}
		}
	}
	return res
}

// vectorOccupancy returns the number of cycles a vector instruction
// occupies the core: ceil(vl/lanes), minimum 1.
func (h *Hart) vectorOccupancy(in riscv.Instr) uint64 {
	switch in.Op {
	case riscv.OpVSETVLI, riscv.OpVSETIVLI, riscv.OpVSETVL:
		return 1
	}
	vl := h.VL
	if vl == 0 {
		return 1
	}
	return (vl + uint64(h.lanes) - 1) / uint64(h.lanes)
}

// DrainEvents returns and clears the accumulated memory events.
func (h *Hart) DrainEvents() []MemEvent {
	evs := h.Events
	h.Events = h.Events[len(h.Events):]
	if len(evs) == 0 {
		return nil
	}
	return evs
}

// dataAccess runs one or more element accesses through the L1D at line
// granularity, deduplicating lines within the instruction, emitting miss
// and writeback events, and marking the destination register pending for
// load misses. addrs is the list of element addresses; size their width.
//
//coyote:allocfree
func (h *Hart) dataAccess(addrs []uint64, write bool, dest RegKind, destReg uint8, hasDest bool) {
	if h.warmLine != nil {
		// Functional mode: the per-line L1D state effects and statistics
		// are identical, but misses complete through the warm sink. No
		// line dedup — WarmAccess's filter makes the repeat touches cheap
		// and the duplicate hits match Step-granular timed accounting
		// closely enough for a region whose stats are approximate anyway.
		for _, a := range addrs {
			h.warmDataAccess(a, write)
		}
		return
	}
	h.lineScratch = h.lineScratch[:0]
	for _, a := range addrs {
		line := h.L1D.LineAddr(a)
		dup := false
		for _, seen := range h.lineScratch {
			if seen == line {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		h.lineScratch = append(h.lineScratch, line)
		res := h.L1D.Access(a, write)
		if res.HasWriteback {
			h.Stats.Writebacks++
			h.emit(MemEvent{Addr: res.Writeback, Write: true})
		}
		if !res.Hit {
			if write {
				h.Stats.StoreMisses++
				// Write-allocate: the line must still be fetched, but no
				// register depends on it; model as a read request without
				// a destination (the store buffer hides the latency).
				h.emit(MemEvent{Addr: line})
			} else {
				h.Stats.LoadMisses++
				ev := MemEvent{Addr: line}
				if hasDest {
					ev.HasDest = true
					ev.Dest = dest
					ev.DestReg = destReg
					h.markPending(dest, destReg)
				}
				h.emit(ev)
			}
		}
	}
}

// warmDataAccess is the functional-mode data path: the L1D access runs
// through WarmAccess's line filter and any post-L1 traffic — the
// writeback first, then the missed line, matching the timed event order
// — goes straight to the warm sink and completes immediately. Per-line
// L1D state effects and miss statistics are identical to the timed path.
//
//coyote:specwrite-ok warming mode and speculation never overlap: the orchestrator disarms the sink before timed execution resumes, and SetWarmSink resets the filter on every arm
func (h *Hart) warmDataAccess(addr uint64, write bool) {
	line := h.L1D.LineAddr(addr)
	slot := &h.warmSeen[(line*0x9E3779B97F4A7C15)>>(64-warmSeenBits)]
	if !write && !san.Enabled && *slot == line|1 {
		h.L1D.Stats.Hits++
		return
	}
	res := h.L1D.WarmAccess(addr, write)
	*slot = line | 1
	if res.HasWriteback {
		h.Stats.Writebacks++
		h.warmLine(res.Writeback, true)
	}
	if !res.Hit {
		if write {
			h.Stats.StoreMisses++
		} else {
			h.Stats.LoadMisses++
		}
		h.warmLine(line, false)
	}
}

// scalarLoadAccess is dataAccess specialised for a single scalar load:
// one address needs no line dedup, and the hit path — the overwhelming
// majority — needs no line address either. Event order matches the
// general path exactly: any writeback first, then the miss request.
func (h *Hart) scalarLoadAccess(addr uint64, dest RegKind, destReg uint8) {
	if h.warmLine != nil {
		h.warmDataAccess(addr, false)
		return
	}
	res := h.L1D.Access(addr, false)
	if res.HasWriteback {
		h.Stats.Writebacks++
		h.emit(MemEvent{Addr: res.Writeback, Write: true})
	}
	if !res.Hit {
		h.Stats.LoadMisses++
		h.markPending(dest, destReg)
		// A load to x0 has no register to wake; the fill completes unheard.
		h.emit(MemEvent{Addr: h.L1D.LineAddr(addr), HasDest: dest != RegX || destReg != 0, Dest: dest, DestReg: destReg})
	}
}

// scalarStoreAccess is dataAccess specialised for a single scalar store.
func (h *Hart) scalarStoreAccess(addr uint64) {
	if h.warmLine != nil {
		h.warmDataAccess(addr, true)
		h.storeInvalidate(addr)
		return
	}
	res := h.L1D.Access(addr, true)
	if res.HasWriteback {
		h.Stats.Writebacks++
		h.emit(MemEvent{Addr: res.Writeback, Write: true})
	}
	if !res.Hit {
		h.Stats.StoreMisses++
		// Write-allocate: the line must still be fetched, but no register
		// depends on it; model as a read request without a destination
		// (the store buffer hides the latency).
		h.emit(MemEvent{Addr: h.L1D.LineAddr(addr)})
	}
	h.storeInvalidate(addr)
}
