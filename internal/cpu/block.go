package cpu

import (
	"math"

	"github.com/coyote-sim/coyote/internal/riscv"
	"github.com/coyote-sim/coyote/internal/san"
)

// Superblock execution engine.
//
// Every retired instruction of a Step call pays the full entry: L1I line
// check, cache probe, scoreboard test, orchestrator return. For
// straight-line code — the overwhelming majority of kernel instructions —
// all of that bookkeeping is predictable in advance. The text image
// (text.go) marks, at every instruction, the straight-line run that
// starts there ("superblock"): it ends with the next branch, jal or jalr,
// folded in as its last instruction, or before the next instruction that
// must leave the fast path (system, atomic, undecodable).
//
// StepBlock executes such a run in one tight loop and is semantically
// exactly  "call Step up to max times":  same per-instruction L1I timing,
// same scoreboard stalls, same events in the same order — it only batches
// the Instret and same-line L1I hit counters (flushed before returning)
// and lets the orchestrator dispatch the accumulated events once per call
// instead of once per instruction. The execution loop advances pc to
// whatever nextPC execute produced, so a trailing branch retires inside
// the block and redirects the hart in one call — a loop iteration costs
// one StepBlock entry, never a single-step detour. No per-hart resume
// state exists: a block is a slice of the image.
//
// Terminators execute through the plain Step path: their run is zero, and
// StepBlock falls back to a single Step for them.

// Inline classes: the handful of opcodes that dominate scalar HPC kernels
// execute directly in StepBlockFunctional's and StepAhead's loops,
// skipping execute's two-level dispatch. Every inline body must mirror
// execute's semantics exactly (x0 guard, sign extension, memory side
// effects); everything else takes fastNone through execute.
const (
	fastNone uint8 = iota
	fastADDI
	fastADD
	fastLD
	fastSD
	fastFLD
	fastFSD
	fastFMADDD
	fastFADDD
	fastFMULD
	fastBEQ
	fastBNE
	fastBLT
	fastBGE
	fastBLTU
	fastBGEU
)

// fastClass assigns a blockInstr its inline class. Cold
// path: runs once per instruction per image load.
func fastClass(op riscv.Op) uint8 {
	switch op {
	case riscv.OpADDI:
		return fastADDI
	case riscv.OpADD:
		return fastADD
	case riscv.OpLD:
		return fastLD
	case riscv.OpSD:
		return fastSD
	case riscv.OpFLD:
		return fastFLD
	case riscv.OpFSD:
		return fastFSD
	case riscv.OpFMADDD:
		return fastFMADDD
	case riscv.OpFADDD:
		return fastFADDD
	case riscv.OpFMULD:
		return fastFMULD
	case riscv.OpBEQ:
		return fastBEQ
	case riscv.OpBNE:
		return fastBNE
	case riscv.OpBLT:
		return fastBLT
	case riscv.OpBGE:
		return fastBGE
	case riscv.OpBLTU:
		return fastBLTU
	case riscv.OpBGEU:
		return fastBGEU
	}
	return fastNone
}

// StepBlock attempts to execute up to max instructions at cycle now,
// taking straight-line runs from the text image. It is semantically
// identical to calling Step(now) up to max times: it returns the number
// of instructions retired and the last StepResult (StepExecuted when the
// run ended at a block boundary or the max was reached with every
// instruction retired). Produced memory events accumulate in h.Events in
// program order exactly as under Step; the caller drains them after the
// call instead of after every instruction.
//
//coyote:allocfree
func (h *Hart) StepBlock(now uint64, max int) (int, StepResult) {
	if h.Halted {
		return 0, StepHalted
	}
	if h.fetchPending {
		h.Stats.StallsFetch++
		return 0, StepStalledFetch
	}
	if now < h.busyUntil {
		h.Stats.BusyCycles++
		return 0, StepBusy
	}
	if h.blockOff || max <= 0 {
		if res := h.Step(now); res != StepExecuted {
			return 0, res
		}
		return 1, StepExecuted
	}

	// The tight loop. Per instruction it performs exactly the work Step
	// performs, in the same order — fetch timing, scoreboard, speculative
	// save, execute, retire bookkeeping — with two counters batched in
	// locals: Instret (== retired) and the same-line L1I hit count. Both
	// are flushed at the single exit point below, before any caller can
	// observe Stats, so snapshots and rollbacks stay consistent.
	//
	// The chain loop follows block boundaries for as long as the quantum
	// has budget: when a block's trailing branch redirects to another
	// block, execution continues there within the same call. The
	// per-call entry checks and counter flushes amortize across the whole
	// quantum, and the orchestrator dispatches events once per quantum —
	// every request still reaches the uncore at the same cycle in the
	// same order.
	spec := h.spec.active
	retired := 0
	hits := uint64(0)
	res := StepExecuted
	lineBytes := uint64(h.L1I.LineBytes())
chain:
	for {
		t := h.text
		i := t.slot(h.PC)
		if i >= uint64(len(t.code)) {
			t, i = h.atCold(h.PC), 0
		}
		n := int(t.code[i].run)
		if n == 0 {
			// First instruction is a terminator (or undecodable): the
			// architectural single-step path owns system instructions,
			// atomics and faults. Mid-chain, return what has retired; the
			// orchestrator's quantum loop re-enters and lands here again.
			if retired > 0 {
				break chain
			}
			if res := h.Step(now); res != StepExecuted {
				return 0, res
			}
			return 1, StepExecuted
		}
		if n > max-retired {
			n = max - retired
		}
		pc := h.PC
		code := t.code[i:][:n]
	loop:
		for k := 0; k < n; {
			// Fetch timing through L1I, hoisted to line granularity: all the
			// instructions of this block that share pc's I-line form one
			// segment, checked against the last-fetched line once. The inner
			// loop then counts one same-line hit per *attempted* instruction
			// (exactly Step's per-fetch accounting — an instruction that
			// RAW-stalls has still fetched); when the segment's line came
			// through a real Access, that call already counted the first
			// instruction's hit, so the batched counter is pre-decremented.
			line := h.L1I.LineAddr(pc)
			seg := int((line + lineBytes - pc) >> 2)
			if seg > n-k {
				seg = n - k
			}
			if h.lastFetchValid && line == h.lastFetchLine {
				// whole segment fetches from the resident line
			} else if r := h.L1I.Access(pc, false); r.Hit {
				h.lastFetchLine = line
				h.lastFetchValid = true
				hits--
			} else {
				h.lastFetchValid = false
				h.Stats.FetchMisses++
				h.fetchPending = true
				h.emit(MemEvent{Addr: line, Fetch: true})
				h.Stats.StallsFetch++
				res = StepStalledFetch
				break
			}
			segEnd := k + seg
			_ = code[segEnd-1] // hoist the bounds check out of the segment loop
			for ; k < segEnd; k++ {
				bi := &code[k]
				hits++
				if san.Enabled {
					h.sanCheckFetch(pc, bi)
				}
				use := &bi.use
				if bi.isVec {
					use = &t.vuse[bi.vuse+lmulIndex(h.VType.LMUL)]
				}

				// Scoreboard: stall on any pending source or destination.
				if (use.ReadsX|use.WritesX)&h.pending[RegX] != 0 ||
					(use.ReadsF|use.WritesF)&h.pending[RegF] != 0 ||
					(use.ReadsV|use.WritesV)&h.pending[RegV] != 0 {
					h.Stats.StallsRAW++
					res = StepStalledRAW
					break loop
				}

				// Superblocks never contain atomics or ecall, so the write masks
				// are the complete speculative-save footprint.
				if spec {
					if use.WritesX != 0 {
						h.specSaveX(use.WritesX)
					}
					if use.WritesF != 0 {
						h.specSaveF(use.WritesF)
					}
					if use.WritesV != 0 {
						h.specSaveV(use.WritesV)
					}
				}

				h.PC = pc // execute reads h.PC (auipc, branch targets, fault reports)
				nextPC := pc + 4
				res = h.execute(bi.in, &nextPC, now)
				if res != StepExecuted {
					break loop // fault: execute already halted the hart
				}
				// pc+4 for every instruction but a trailing branch, whose redirect
				// (or fall-through) execute wrote into nextPC; a branch is always
				// the block's last element, so the loop exits right after.
				pc = nextPC
				h.PC = pc
				retired++
				if bi.isVec {
					h.Stats.VectorOps++
					if occ := h.vectorOccupancy(bi.in); occ > 1 {
						h.busyUntil = now + occ
						if k+1 < n { //coyote:mut-survivor equivalent: at k+1 == n the block ends and the next StepBlock entry performs the same deferred busy accounting
							// Step would report StepBusy for the next attempt of
							// this quantum; at the block's end the next StepBlock
							// entry check does the same accounting instead.
							h.Stats.BusyCycles++
							res = StepBusy
							break loop
						}
					}
				}
			}
		}
		// Chain into the next block only while the quantum has budget and
		// the hart can actually take another instruction this cycle: a
		// trailing vector op may have set busyUntil, which pre-chaining the
		// next StepBlock *entry* check would catch — mid-chain we must stop
		// here and let the orchestrator's re-entry do that accounting.
		if res != StepExecuted || retired == max || now < h.busyUntil {
			break chain
		}
	}
	h.Stats.Instret += uint64(retired)
	h.L1I.Stats.Hits += hits
	return retired, res
}

// StepAhead is the orchestrator's visit to a hart at InterleaveQuantum 1.
// It attempts one instruction at cycle now exactly as StepBlock(now, 1)
// does, and when that instruction retires and leaves the core free it goes
// on through the instructions behind it for as long as each one
//
//   - is of the register-only class (blockInstr.ahead): nothing outside
//     the hart can observe on which cycle it ran;
//   - lies in the image, on the I-line the hart last fetched — one
//     same-line L1I hit, counted as Step counts it;
//   - names no register that is pending now: fills only ever clear
//     pending bits, and the instructions in between set none, so it names
//     none on its own cycle either;
//   - is stamped before limit: instruction j of the call runs at now+j.
//
// It returns the instructions retired and the first attempt's result. On
// StepExecuted the hart's next instruction belongs to cycle now+n, and
// the caller must not visit the hart before then. limit must exceed now;
// now+1 asks for no look-ahead. Not for use under armed speculation.
//
// The first instruction and those behind it dispatch the hot opcodes
// through blockInstr.fast in one switch: at 32–128 interleaved harts the
// host predicts neither level of execute's dispatch.
//
//coyote:allocfree
func (h *Hart) StepAhead(now, limit uint64) (int, StepResult) {
	if h.Halted {
		return 0, StepHalted
	}
	if h.fetchPending {
		h.Stats.StallsFetch++
		return 0, StepStalledFetch
	}
	if now < h.busyUntil {
		h.Stats.BusyCycles++
		return 0, StepBusy
	}
	if san.Enabled {
		san.Check(!h.spec.active && limit > now, now, "cpu.ahead",
			"StepAhead under armed speculation or with no cycle to run in", uint64(h.ID), limit)
	}
	done := 0
	if i := h.text.slot(h.PC); i >= uint64(len(h.text.code)) || h.text.code[i].fast == fastNone ||
		!h.lastFetchValid || h.L1I.LineAddr(h.PC) != h.lastFetchLine {
		// Anything but a hot opcode on the line already fetched takes the
		// general path. No look-ahead behind an instruction that halted the
		// hart, occupies the core past the next cycle (its busy cycles are
		// counted a visit each) or took the fetched line away (fence.i).
		n, res := h.StepBlock(now, 1)
		if n == 0 || h.Halted || h.busyUntil > now+1 || !h.lastFetchValid {
			return n, res
		}
		done = 1
	}
	return h.ahead(now, done, limit-now)
}

// ahead is StepAhead's loop: with done == 0 the instruction at PC is the
// visit's own, a hot opcode on the fetched line, attempted at now; every
// later one is looked ahead into, up to max instructions for the call.
//
//coyote:allocfree
func (h *Hart) ahead(now uint64, done int, max uint64) (int, StepResult) {
	t := h.text
	pc := h.PC
	line := h.lastFetchLine
	lineMask := ^uint64(h.L1I.LineBytes() - 1)
	n := done
	for {
		i := t.slot(pc)
		if i >= uint64(len(t.code)) || pc&lineMask != line {
			break
		}
		bi := &t.code[i]
		if n > 0 && (!bi.ahead || uint64(n) >= max) {
			break
		}
		// Hot opcodes and the register-only class hold no vector op:
		// bi.use is the whole footprint.
		use := &bi.use
		if (use.ReadsX|use.WritesX)&h.pending[RegX] != 0 ||
			(use.ReadsF|use.WritesF)&h.pending[RegF] != 0 {
			if n > 0 {
				break // its own cycle decides whether it stalls
			}
			h.L1I.Stats.Hits++
			h.Stats.StallsRAW++
			return 0, StepStalledRAW
		}
		if san.Enabled {
			h.sanCheckFetch(pc, bi)
			if n > 0 {
				h.sanCheckAhead(now+uint64(n), bi)
			}
		}
		switch in := &bi.in; bi.fast {
		case fastADDI:
			if in.Rd != 0 {
				h.X[in.Rd] = h.X[in.Rs1] + uint64(in.Imm)
			}
			pc += 4
		case fastADD:
			if in.Rd != 0 {
				h.X[in.Rd] = h.X[in.Rs1] + h.X[in.Rs2]
			}
			pc += 4
		case fastLD:
			a := h.X[in.Rs1] + uint64(in.Imm)
			v := h.memRead64(a) // a read allocates its page: ld zero reads too, as in execute
			if in.Rd != 0 {
				h.X[in.Rd] = v
			}
			h.scalarLoadAccess(a, RegX, in.Rd)
			pc += 4
		case fastSD:
			a := h.X[in.Rs1] + uint64(in.Imm)
			h.memWrite64(a, h.X[in.Rs2])
			h.scalarStoreAccess(a)
			pc += 4
		case fastFLD:
			a := h.X[in.Rs1] + uint64(in.Imm)
			h.F[in.Rd] = h.memRead64(a)
			h.scalarLoadAccess(a, RegF, in.Rd)
			pc += 4
		case fastFSD:
			a := h.X[in.Rs1] + uint64(in.Imm)
			h.memWrite64(a, h.F[in.Rs2])
			h.scalarStoreAccess(a)
			pc += 4
		case fastFMADDD:
			h.setF64(in.Rd, math.FMA(h.getF64(in.Rs1), h.getF64(in.Rs2), h.getF64(in.Rs3)))
			pc += 4
		case fastFADDD:
			h.setF64(in.Rd, h.getF64(in.Rs1)+h.getF64(in.Rs2))
			pc += 4
		case fastFMULD:
			h.setF64(in.Rd, h.getF64(in.Rs1)*h.getF64(in.Rs2))
			pc += 4
		case fastBEQ:
			if h.X[in.Rs1] == h.X[in.Rs2] {
				pc += uint64(in.Imm)
			} else {
				pc += 4
			}
		case fastBNE:
			if h.X[in.Rs1] != h.X[in.Rs2] {
				pc += uint64(in.Imm)
			} else {
				pc += 4
			}
		case fastBLT:
			if int64(h.X[in.Rs1]) < int64(h.X[in.Rs2]) {
				pc += uint64(in.Imm)
			} else {
				pc += 4
			}
		case fastBGE:
			if int64(h.X[in.Rs1]) >= int64(h.X[in.Rs2]) {
				pc += uint64(in.Imm)
			} else {
				pc += 4
			}
		case fastBLTU:
			if h.X[in.Rs1] < h.X[in.Rs2] {
				pc += uint64(in.Imm)
			} else {
				pc += 4
			}
		case fastBGEU:
			if h.X[in.Rs1] >= h.X[in.Rs2] {
				pc += uint64(in.Imm)
			} else {
				pc += 4
			}
		default:
			// The rest of the register-only class, only ever looked ahead
			// into (StepAhead keeps fastNone from a visit's own slot);
			// execute cannot fault on it.
			h.PC = pc // execute reads h.PC (auipc, jal, branch targets)
			next := pc + 4
			h.execute(bi.in, &next, now+uint64(n))
			pc = next
		}
		n++
	}
	h.PC = pc
	h.Stats.Instret += uint64(n - done)
	h.L1I.Stats.Hits += uint64(n - done)
	return n, StepExecuted
}

// sanCheckAhead checks, against the opcode itself and a footprint worked
// out afresh, what the image's ahead flag and the scoreboard test claimed
// of an instruction about to run ahead of the clock at cycle stamp. Only
// called under san.Enabled.
func (h *Hart) sanCheckAhead(stamp uint64, bi *blockInstr) {
	cls := bi.in.Op.Classify()
	san.Check(registerOnly(bi.in.Op) && !bi.isVec &&
		cls&^(riscv.ClassALU|riscv.ClassBranch|riscv.ClassFloat) == 0,
		stamp, "core.due", "looked ahead into an instruction outside the register-only class",
		uint64(h.ID), uint64(bi.in.Op))
	use := riscv.RegUsage(bi.in, 1)
	san.Check((use.ReadsX|use.WritesX)&h.pending[RegX] == 0 &&
		(use.ReadsF|use.WritesF)&h.pending[RegF] == 0,
		stamp, "core.due", "looked ahead into an instruction that names a pending register",
		uint64(h.ID), uint64(bi.in.Op))
	san.Check(h.busyUntil <= stamp && !h.Halted && !h.fetchPending,
		stamp, "core.due", "looked ahead on a hart that is busy, halted or waiting for a fetch",
		uint64(h.ID), h.busyUntil)
}

// StepBlockFunctional is StepBlock's functional-mode twin: up to max
// instructions execute with the same ISA-exact semantics through the
// same superblocks, but with SetWarmSink armed every cache miss
// completes immediately — so the stall machinery is provably inert and
// the loop drops it. Specifically:
//
//   - no scoreboard check: with synchronous completion the pending
//     masks stay empty (the MCPU gather path can mark a register
//     pending mid-quantum, but the data was already written at issue —
//     the mask is timing theater the orchestrator's functional
//     dispatcher clears after the call);
//   - no speculative saves: functional regions never run under the
//     parallel orchestrator's speculation;
//   - fetch misses warm the hierarchy and fetch on (no StallsFetch);
//   - no vector-occupancy busy windows: functional time is per-hart
//     and meaningless, so multi-cycle occupancy neither stalls the loop
//     nor accumulates BusyCycles.
//
// The loop therefore only exits at terminators, faults, the halt or
// quantum exhaustion — a cache miss no longer costs a quantum round
// trip through the orchestrator.
func (h *Hart) StepBlockFunctional(now uint64, max int) (int, StepResult) {
	if h.Halted {
		return 0, StepHalted
	}
	if h.warmLine == nil {
		// No warm sink armed: the inline fast-op bodies below assume the
		// warm-gated memory paths; fall back to fully timed stepping.
		return h.StepBlock(now, max)
	}
	if h.blockOff || max <= 0 {
		// Step still honours busyUntil; functional callers pass a clock
		// at or past it.
		if res := h.Step(now); res != StepExecuted {
			return 0, res
		}
		return 1, StepExecuted
	}
	retired := 0
	hits := uint64(0)
	res := StepExecuted
	lineBytes := uint64(h.L1I.LineBytes())
chain:
	for {
		t := h.text
		i := t.slot(h.PC)
		if i >= uint64(len(t.code)) {
			t, i = h.atCold(h.PC), 0
		}
		n := int(t.code[i].run)
		if n == 0 {
			// Terminator: the architectural single-step path owns system
			// instructions, atomics and faults (its miss paths are warm-
			// sink gated too).
			if retired > 0 {
				break chain
			}
			if res := h.Step(now); res != StepExecuted {
				return 0, res
			}
			return 1, StepExecuted
		}
		if n > max-retired {
			n = max - retired
		}
		pc := h.PC
		code := t.code[i:][:n]
		for k := 0; k < n; {
			line := h.L1I.LineAddr(pc)
			seg := int((line + lineBytes - pc) >> 2)
			if seg > n-k {
				seg = n - k
			}
			if h.lastFetchValid && line == h.lastFetchLine {
				// whole segment fetches from the resident line
			} else {
				if r := h.L1I.WarmAccess(pc, false); r.Hit {
					hits--
				} else {
					// The first instruction of the segment fetched through the
					// miss, not a same-line hit: cancel its upcoming hits++,
					// matching the gated Step path (one miss, no hit).
					h.Stats.FetchMisses++
					h.warmLine(line, false)
					hits--
				}
				h.lastFetchLine = line
				h.lastFetchValid = true
			}
			segEnd := k + seg
			_ = code[segEnd-1]
			for ; k < segEnd; k++ {
				bi := &code[k]
				hits++
				if san.Enabled {
					h.sanCheckFetch(pc, bi)
				}
				// Inline bodies mirror execute exactly; memory fast ops go
				// straight to the warm-gated helpers the execute path would
				// reach through scalarLoad/StoreAccess.
				switch in := &bi.in; bi.fast {
				case fastADDI:
					if in.Rd != 0 {
						h.X[in.Rd] = h.X[in.Rs1] + uint64(in.Imm)
					}
					pc += 4
				case fastADD:
					if in.Rd != 0 {
						h.X[in.Rd] = h.X[in.Rs1] + h.X[in.Rs2]
					}
					pc += 4
				case fastLD:
					a := h.X[in.Rs1] + uint64(in.Imm)
					if in.Rd != 0 {
						h.X[in.Rd] = h.memRead64(a)
					}
					h.warmDataAccess(a, false)
					pc += 4
				case fastSD:
					a := h.X[in.Rs1] + uint64(in.Imm)
					h.memWrite64(a, h.X[in.Rs2])
					h.warmDataAccess(a, true)
					h.storeInvalidate(a)
					pc += 4
				case fastFLD:
					a := h.X[in.Rs1] + uint64(in.Imm)
					h.F[in.Rd] = h.memRead64(a)
					h.warmDataAccess(a, false)
					pc += 4
				case fastFSD:
					a := h.X[in.Rs1] + uint64(in.Imm)
					h.memWrite64(a, h.F[in.Rs2])
					h.warmDataAccess(a, true)
					h.storeInvalidate(a)
					pc += 4
				case fastFMADDD:
					h.setF64(in.Rd, math.FMA(h.getF64(in.Rs1), h.getF64(in.Rs2), h.getF64(in.Rs3)))
					pc += 4
				case fastFADDD:
					h.setF64(in.Rd, h.getF64(in.Rs1)+h.getF64(in.Rs2))
					pc += 4
				case fastFMULD:
					h.setF64(in.Rd, h.getF64(in.Rs1)*h.getF64(in.Rs2))
					pc += 4
				case fastBEQ:
					if h.X[in.Rs1] == h.X[in.Rs2] {
						pc += uint64(in.Imm)
					} else {
						pc += 4
					}
				case fastBNE:
					if h.X[in.Rs1] != h.X[in.Rs2] {
						pc += uint64(in.Imm)
					} else {
						pc += 4
					}
				case fastBLT:
					if int64(h.X[in.Rs1]) < int64(h.X[in.Rs2]) {
						pc += uint64(in.Imm)
					} else {
						pc += 4
					}
				case fastBGE:
					if int64(h.X[in.Rs1]) >= int64(h.X[in.Rs2]) {
						pc += uint64(in.Imm)
					} else {
						pc += 4
					}
				case fastBLTU:
					if h.X[in.Rs1] < h.X[in.Rs2] {
						pc += uint64(in.Imm)
					} else {
						pc += 4
					}
				case fastBGEU:
					if h.X[in.Rs1] >= h.X[in.Rs2] {
						pc += uint64(in.Imm)
					} else {
						pc += 4
					}
				default:
					h.PC = pc
					nextPC := pc + 4
					res = h.execute(bi.in, &nextPC, now)
					if res != StepExecuted {
						break chain // fault: execute already halted the hart
					}
					pc = nextPC
					if bi.isVec {
						h.Stats.VectorOps++
					}
				}
				retired++
			}
			h.PC = pc
		}
		if retired == max {
			break chain
		}
	}
	h.Stats.Instret += uint64(retired)
	h.L1I.Stats.Hits += hits
	return retired, res
}
