package cpu

import (
	"fmt"
	"math/bits"

	"github.com/coyote-sim/coyote/internal/riscv"
)

// Syscall numbers honoured by the bare-metal environment (Linux ABI
// numbers, matching what Spike's proxy kernel exposes for the kernels we
// run: exit and write-to-console).
const (
	SysExit  = 93
	SysWrite = 64
)

func (h *Hart) setX(r uint8, v uint64) {
	if r != 0 {
		h.X[r] = v
	}
}

// execute runs one decoded instruction. nextPC starts as PC+4 and may be
// redirected by control flow. Memory instructions perform their functional
// effect immediately (shared memory keeps multicore semantics coherent)
// and drive the L1 timing model.
func (h *Hart) execute(in riscv.Instr, nextPC *uint64, now uint64) StepResult {
	x := &h.X
	switch in.Op {
	// ----- RV64I -----
	case riscv.OpLUI:
		h.setX(in.Rd, uint64(int64(int32(uint32(in.Imm)<<12))))
	case riscv.OpAUIPC:
		h.setX(in.Rd, h.PC+uint64(int64(int32(uint32(in.Imm)<<12))))
	case riscv.OpJAL:
		h.setX(in.Rd, h.PC+4)
		*nextPC = h.PC + uint64(in.Imm) //coyote:specwrite-ok out-param: redirects the caller's nextPC local; the h.PC it feeds is snapshot-covered in spec.go
	case riscv.OpJALR:
		t := (x[in.Rs1] + uint64(in.Imm)) &^ 1
		h.setX(in.Rd, h.PC+4)
		*nextPC = t //coyote:specwrite-ok out-param: redirects the caller's nextPC local; the h.PC it feeds is snapshot-covered in spec.go
	case riscv.OpBEQ:
		if x[in.Rs1] == x[in.Rs2] {
			*nextPC = h.PC + uint64(in.Imm) //coyote:specwrite-ok out-param: redirects the caller's nextPC local; the h.PC it feeds is snapshot-covered in spec.go
		}
	case riscv.OpBNE:
		if x[in.Rs1] != x[in.Rs2] {
			*nextPC = h.PC + uint64(in.Imm) //coyote:specwrite-ok out-param: redirects the caller's nextPC local; the h.PC it feeds is snapshot-covered in spec.go
		}
	case riscv.OpBLT:
		if int64(x[in.Rs1]) < int64(x[in.Rs2]) {
			*nextPC = h.PC + uint64(in.Imm) //coyote:specwrite-ok out-param: redirects the caller's nextPC local; the h.PC it feeds is snapshot-covered in spec.go
		}
	case riscv.OpBGE:
		if int64(x[in.Rs1]) >= int64(x[in.Rs2]) {
			*nextPC = h.PC + uint64(in.Imm) //coyote:specwrite-ok out-param: redirects the caller's nextPC local; the h.PC it feeds is snapshot-covered in spec.go
		}
	case riscv.OpBLTU:
		if x[in.Rs1] < x[in.Rs2] {
			*nextPC = h.PC + uint64(in.Imm) //coyote:specwrite-ok out-param: redirects the caller's nextPC local; the h.PC it feeds is snapshot-covered in spec.go
		}
	case riscv.OpBGEU:
		if x[in.Rs1] >= x[in.Rs2] {
			*nextPC = h.PC + uint64(in.Imm) //coyote:specwrite-ok out-param: redirects the caller's nextPC local; the h.PC it feeds is snapshot-covered in spec.go
		}

	case riscv.OpLB:
		a := x[in.Rs1] + uint64(in.Imm)
		h.setX(in.Rd, uint64(int64(int8(h.memRead8(a)))))
		h.scalarLoadAccess(a, RegX, in.Rd)
	case riscv.OpLH:
		a := x[in.Rs1] + uint64(in.Imm)
		h.setX(in.Rd, uint64(int64(int16(h.memRead16(a)))))
		h.scalarLoadAccess(a, RegX, in.Rd)
	case riscv.OpLW:
		a := x[in.Rs1] + uint64(in.Imm)
		h.setX(in.Rd, uint64(int64(int32(h.memRead32(a)))))
		h.scalarLoadAccess(a, RegX, in.Rd)
	case riscv.OpLD:
		a := x[in.Rs1] + uint64(in.Imm)
		h.setX(in.Rd, h.memRead64(a))
		h.scalarLoadAccess(a, RegX, in.Rd)
	case riscv.OpLBU:
		a := x[in.Rs1] + uint64(in.Imm)
		h.setX(in.Rd, uint64(h.memRead8(a)))
		h.scalarLoadAccess(a, RegX, in.Rd)
	case riscv.OpLHU:
		a := x[in.Rs1] + uint64(in.Imm)
		h.setX(in.Rd, uint64(h.memRead16(a)))
		h.scalarLoadAccess(a, RegX, in.Rd)
	case riscv.OpLWU:
		a := x[in.Rs1] + uint64(in.Imm)
		h.setX(in.Rd, uint64(h.memRead32(a)))
		h.scalarLoadAccess(a, RegX, in.Rd)

	case riscv.OpSB:
		a := x[in.Rs1] + uint64(in.Imm)
		h.memWrite8(a, uint8(x[in.Rs2]))
		h.scalarStoreAccess(a)
	case riscv.OpSH:
		a := x[in.Rs1] + uint64(in.Imm)
		h.memWrite16(a, uint16(x[in.Rs2]))
		h.scalarStoreAccess(a)
	case riscv.OpSW:
		a := x[in.Rs1] + uint64(in.Imm)
		h.memWrite32(a, uint32(x[in.Rs2]))
		h.scalarStoreAccess(a)
	case riscv.OpSD:
		a := x[in.Rs1] + uint64(in.Imm)
		h.memWrite64(a, x[in.Rs2])
		h.scalarStoreAccess(a)

	case riscv.OpADDI:
		h.setX(in.Rd, x[in.Rs1]+uint64(in.Imm))
	case riscv.OpSLTI:
		h.setX(in.Rd, b2u(int64(x[in.Rs1]) < in.Imm))
	case riscv.OpSLTIU:
		h.setX(in.Rd, b2u(x[in.Rs1] < uint64(in.Imm)))
	case riscv.OpXORI:
		h.setX(in.Rd, x[in.Rs1]^uint64(in.Imm))
	case riscv.OpORI:
		h.setX(in.Rd, x[in.Rs1]|uint64(in.Imm))
	case riscv.OpANDI:
		h.setX(in.Rd, x[in.Rs1]&uint64(in.Imm))
	case riscv.OpSLLI:
		h.setX(in.Rd, x[in.Rs1]<<uint(in.Imm&63))
	case riscv.OpSRLI:
		h.setX(in.Rd, x[in.Rs1]>>uint(in.Imm&63))
	case riscv.OpSRAI:
		h.setX(in.Rd, uint64(int64(x[in.Rs1])>>uint(in.Imm&63)))

	case riscv.OpADD:
		h.setX(in.Rd, x[in.Rs1]+x[in.Rs2])
	case riscv.OpSUB:
		h.setX(in.Rd, x[in.Rs1]-x[in.Rs2])
	case riscv.OpSLL:
		h.setX(in.Rd, x[in.Rs1]<<(x[in.Rs2]&63))
	case riscv.OpSLT:
		h.setX(in.Rd, b2u(int64(x[in.Rs1]) < int64(x[in.Rs2])))
	case riscv.OpSLTU:
		h.setX(in.Rd, b2u(x[in.Rs1] < x[in.Rs2]))
	case riscv.OpXOR:
		h.setX(in.Rd, x[in.Rs1]^x[in.Rs2])
	case riscv.OpSRL:
		h.setX(in.Rd, x[in.Rs1]>>(x[in.Rs2]&63))
	case riscv.OpSRA:
		h.setX(in.Rd, uint64(int64(x[in.Rs1])>>(x[in.Rs2]&63)))
	case riscv.OpOR:
		h.setX(in.Rd, x[in.Rs1]|x[in.Rs2])
	case riscv.OpAND:
		h.setX(in.Rd, x[in.Rs1]&x[in.Rs2])

	case riscv.OpADDIW:
		h.setX(in.Rd, sext32(uint32(x[in.Rs1])+uint32(in.Imm)))
	case riscv.OpSLLIW:
		h.setX(in.Rd, sext32(uint32(x[in.Rs1])<<uint(in.Imm&31)))
	case riscv.OpSRLIW:
		h.setX(in.Rd, sext32(uint32(x[in.Rs1])>>uint(in.Imm&31)))
	case riscv.OpSRAIW:
		h.setX(in.Rd, uint64(int64(int32(x[in.Rs1])>>uint(in.Imm&31))))
	case riscv.OpADDW:
		h.setX(in.Rd, sext32(uint32(x[in.Rs1])+uint32(x[in.Rs2])))
	case riscv.OpSUBW:
		h.setX(in.Rd, sext32(uint32(x[in.Rs1])-uint32(x[in.Rs2])))
	case riscv.OpSLLW:
		h.setX(in.Rd, sext32(uint32(x[in.Rs1])<<(x[in.Rs2]&31)))
	case riscv.OpSRLW:
		h.setX(in.Rd, sext32(uint32(x[in.Rs1])>>(x[in.Rs2]&31)))
	case riscv.OpSRAW:
		h.setX(in.Rd, uint64(int64(int32(x[in.Rs1])>>(x[in.Rs2]&31))))

	case riscv.OpFENCE:
		// No reordering to constrain in this model.
	case riscv.OpFENCEI:
		// Instruction-stream synchronisation: harts execute the pre-decoded
		// image, so a program that wrote code must fence.i before jumping
		// to it. Re-decoding has no timing or statistics effect (decode is
		// not modelled as a cached timing resource). Serial path only: Step
		// refuses fence.i under armed speculation.
		h.text.load(h.Mem)
		h.lastFetchValid = false

	case riscv.OpECALL:
		return h.ecall()
	case riscv.OpEBREAK:
		h.Halted = true
		return StepExecuted

	// ----- Zicsr -----
	case riscv.OpCSRRW, riscv.OpCSRRS, riscv.OpCSRRC,
		riscv.OpCSRRWI, riscv.OpCSRRSI, riscv.OpCSRRCI:
		return h.executeCSR(in)

	// ----- M -----
	case riscv.OpMUL:
		h.setX(in.Rd, x[in.Rs1]*x[in.Rs2])
	case riscv.OpMULH:
		h.setX(in.Rd, mulh(int64(x[in.Rs1]), int64(x[in.Rs2])))
	case riscv.OpMULHSU:
		h.setX(in.Rd, mulhsu(int64(x[in.Rs1]), x[in.Rs2]))
	case riscv.OpMULHU:
		h.setX(in.Rd, mulhu(x[in.Rs1], x[in.Rs2]))
	case riscv.OpDIV:
		h.setX(in.Rd, divS(int64(x[in.Rs1]), int64(x[in.Rs2])))
	case riscv.OpDIVU:
		h.setX(in.Rd, divU(x[in.Rs1], x[in.Rs2]))
	case riscv.OpREM:
		h.setX(in.Rd, remS(int64(x[in.Rs1]), int64(x[in.Rs2])))
	case riscv.OpREMU:
		h.setX(in.Rd, remU(x[in.Rs1], x[in.Rs2]))
	case riscv.OpMULW:
		h.setX(in.Rd, sext32(uint32(x[in.Rs1])*uint32(x[in.Rs2])))
	case riscv.OpDIVW:
		h.setX(in.Rd, uint64(int64(div32(int32(x[in.Rs1]), int32(x[in.Rs2])))))
	case riscv.OpDIVUW:
		h.setX(in.Rd, sext32(divu32(uint32(x[in.Rs1]), uint32(x[in.Rs2]))))
	case riscv.OpREMW:
		h.setX(in.Rd, uint64(int64(rem32(int32(x[in.Rs1]), int32(x[in.Rs2])))))
	case riscv.OpREMUW:
		h.setX(in.Rd, sext32(remu32(uint32(x[in.Rs1]), uint32(x[in.Rs2]))))

	// ----- A -----
	case riscv.OpLRW:
		a := x[in.Rs1]
		h.setX(in.Rd, sext32(h.memRead32(a)))
		h.resv.set(h.ID, h.L1D.LineAddr(a))
		h.scalarLoadAccess(a, RegX, in.Rd)
	case riscv.OpLRD:
		a := x[in.Rs1]
		h.setX(in.Rd, h.memRead64(a))
		h.resv.set(h.ID, h.L1D.LineAddr(a))
		h.scalarLoadAccess(a, RegX, in.Rd)
	case riscv.OpSCW:
		a := x[in.Rs1]
		if h.resv.check(h.ID, h.L1D.LineAddr(a)) {
			h.memWrite32(a, uint32(x[in.Rs2]))
			h.setX(in.Rd, 0)
			h.scalarStoreAccess(a)
		} else {
			h.setX(in.Rd, 1)
		}
	case riscv.OpSCD:
		a := x[in.Rs1]
		if h.resv.check(h.ID, h.L1D.LineAddr(a)) {
			h.memWrite64(a, x[in.Rs2])
			h.setX(in.Rd, 0)
			h.scalarStoreAccess(a)
		} else {
			h.setX(in.Rd, 1)
		}
	case riscv.OpAMOSWAPW, riscv.OpAMOADDW, riscv.OpAMOXORW, riscv.OpAMOANDW,
		riscv.OpAMOORW, riscv.OpAMOMINW, riscv.OpAMOMAXW,
		riscv.OpAMOMINUW, riscv.OpAMOMAXUW:
		h.amo32(in)
	case riscv.OpAMOSWAPD, riscv.OpAMOADDD, riscv.OpAMOXORD, riscv.OpAMOANDD,
		riscv.OpAMOORD, riscv.OpAMOMIND, riscv.OpAMOMAXD,
		riscv.OpAMOMINUD, riscv.OpAMOMAXUD:
		h.amo64(in)

	default:
		if in.Op.Classify()&riscv.ClassFloat != 0 {
			return h.executeFP(in)
		}
		if in.Op.IsVector() {
			return h.executeVector(in)
		}
		h.Fault = fmt.Errorf("hart %d: pc=%#x: unimplemented op %v", h.ID, h.PC, in.Op) //coyote:alloc-ok fault path is terminal, the run ends here
		h.Halted = true
		return StepFault
	}
	return StepExecuted
}

// ecall implements the minimal bare-metal environment.
func (h *Hart) ecall() StepResult {
	switch h.X[riscv.RegA7] {
	case SysExit:
		h.ExitCode = h.X[riscv.RegA0]
		h.Halted = true
		return StepExecuted
	case SysWrite:
		buf := h.X[riscv.RegA1]
		n := h.X[riscv.RegA2]
		for i := uint64(0); i < n; i++ {
			h.Console.WriteByte(h.memRead8(buf + i))
		}
		h.X[riscv.RegA0] = n
		return StepExecuted
	default:
		h.Fault = fmt.Errorf("hart %d: pc=%#x: unsupported ecall %d", //coyote:alloc-ok fault path is terminal, the run ends here
			h.ID, h.PC, h.X[riscv.RegA7])
		h.Halted = true
		return StepFault
	}
}

func (h *Hart) amo32(in riscv.Instr) {
	a := h.X[in.Rs1]
	old := sext32(h.memRead32(a))
	src := h.X[in.Rs2]
	var res uint32
	switch in.Op {
	case riscv.OpAMOSWAPW:
		res = uint32(src)
	case riscv.OpAMOADDW:
		res = uint32(old) + uint32(src)
	case riscv.OpAMOXORW:
		res = uint32(old) ^ uint32(src)
	case riscv.OpAMOANDW:
		res = uint32(old) & uint32(src)
	case riscv.OpAMOORW:
		res = uint32(old) | uint32(src)
	case riscv.OpAMOMINW:
		res = uint32(minS32(int32(old), int32(src)))
	case riscv.OpAMOMAXW:
		res = uint32(maxS32(int32(old), int32(src)))
	case riscv.OpAMOMINUW:
		res = minU32(uint32(old), uint32(src))
	case riscv.OpAMOMAXUW:
		res = maxU32(uint32(old), uint32(src))
	}
	h.memWrite32(a, res)
	h.setX(in.Rd, old)
	// Timing: an AMO is a read-modify-write of one line; the result value
	// depends on the memory round trip, so rd becomes pending on a miss.
	h.oneAddr[0] = a
	h.dataAccess(h.oneAddr[:], true, RegX, in.Rd, in.Rd != 0)
	h.storeInvalidate(a)
}

func (h *Hart) amo64(in riscv.Instr) {
	a := h.X[in.Rs1]
	old := h.memRead64(a)
	src := h.X[in.Rs2]
	var res uint64
	switch in.Op {
	case riscv.OpAMOSWAPD:
		res = src
	case riscv.OpAMOADDD:
		res = old + src
	case riscv.OpAMOXORD:
		res = old ^ src
	case riscv.OpAMOANDD:
		res = old & src
	case riscv.OpAMOORD:
		res = old | src
	case riscv.OpAMOMIND:
		if int64(src) < int64(old) {
			res = src
		} else {
			res = old
		}
	case riscv.OpAMOMAXD:
		if int64(src) > int64(old) {
			res = src
		} else {
			res = old
		}
	case riscv.OpAMOMINUD:
		if src < old {
			res = src
		} else {
			res = old
		}
	case riscv.OpAMOMAXUD:
		if src > old {
			res = src
		} else {
			res = old
		}
	}
	h.memWrite64(a, res)
	h.setX(in.Rd, old)
	h.oneAddr[0] = a
	h.dataAccess(h.oneAddr[:], true, RegX, in.Rd, in.Rd != 0)
	h.storeInvalidate(a)
}

// ---- arithmetic helpers ----

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sext32(v uint32) uint64 { return uint64(int64(int32(v))) }

// mulhu returns the high 64 bits of the unsigned 128-bit product.
func mulhu(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

// mulh returns the high 64 bits of the signed 128-bit product.
func mulh(a, b int64) uint64 {
	hi := mulhu(uint64(a), uint64(b))
	// Correct the unsigned product for negative operands.
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return hi
}

// mulhsu returns the high 64 bits of the signed×unsigned 128-bit product.
func mulhsu(a int64, b uint64) uint64 {
	hi := mulhu(uint64(a), b)
	if a < 0 {
		hi -= b
	}
	return hi
}

func divS(a, b int64) uint64 {
	switch {
	case b == 0:
		return ^uint64(0)
	case a == -1<<63 && b == -1:
		return uint64(a)
	default:
		return uint64(a / b)
	}
}

func divU(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

func remS(a, b int64) uint64 {
	switch {
	case b == 0:
		return uint64(a)
	case a == -1<<63 && b == -1:
		return 0
	default:
		return uint64(a % b)
	}
}

func remU(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

func div32(a, b int32) int32 {
	switch {
	case b == 0:
		return -1
	case a == -1<<31 && b == -1:
		return a
	default:
		return a / b
	}
}

func divu32(a, b uint32) uint32 {
	if b == 0 {
		return ^uint32(0)
	}
	return a / b
}

func rem32(a, b int32) int32 {
	switch {
	case b == 0:
		return a
	case a == -1<<31 && b == -1:
		return 0
	default:
		return a % b
	}
}

func remu32(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	return a % b
}

func minS32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
func maxS32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}
func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
