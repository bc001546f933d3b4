package cpu

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/coyote-sim/coyote/internal/riscv"
)

// Vector registers live in h.V as one flat byte array (32 × VLenB).
// Register groups (LMUL > 1) are contiguous, so element i of a group
// based at register r sits at byte r*VLenB + i*sew/8.
//
// Pending-fill bookkeeping attributes all misses of a vector load to the
// group's base register; dependence checks use whole-group masks
// (riscv.RegUsage), which is exact as long as producers and consumers use
// the same LMUL — true for all kernels in this repo and documented in
// DESIGN.md.

func (h *Hart) vOff(reg uint8, i uint64, bytes uint) uint64 {
	return uint64(reg)*uint64(h.VLenB) + i*uint64(bytes)
}

func (h *Hart) vGetInt(reg uint8, i uint64, sew uint) uint64 {
	o := h.vOff(reg, i, sew/8)
	switch sew {
	case 8:
		return uint64(h.V[o])
	case 16:
		return uint64(binary.LittleEndian.Uint16(h.V[o:]))
	case 32:
		return uint64(binary.LittleEndian.Uint32(h.V[o:]))
	default:
		return binary.LittleEndian.Uint64(h.V[o:])
	}
}

// vGetIntSext reads an element sign-extended to 64 bits.
func (h *Hart) vGetIntSext(reg uint8, i uint64, sew uint) int64 {
	v := h.vGetInt(reg, i, sew)
	shift := 64 - sew
	return int64(v<<shift) >> shift
}

func (h *Hart) vSetInt(reg uint8, i uint64, sew uint, v uint64) {
	o := h.vOff(reg, i, sew/8)
	switch sew {
	case 8:
		h.V[o] = byte(v)
	case 16:
		binary.LittleEndian.PutUint16(h.V[o:], uint16(v))
	case 32:
		binary.LittleEndian.PutUint32(h.V[o:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(h.V[o:], v)
	}
}

func (h *Hart) vGetF64(reg uint8, i uint64) float64 {
	return math.Float64frombits(h.vGetInt(reg, i, 64))
}

func (h *Hart) vSetF64(reg uint8, i uint64, v float64) {
	h.vSetInt(reg, i, 64, math.Float64bits(v))
}

func (h *Hart) vGetF32(reg uint8, i uint64) float32 {
	return math.Float32frombits(uint32(h.vGetInt(reg, i, 32)))
}

func (h *Hart) vSetF32(reg uint8, i uint64, v float32) {
	h.vSetInt(reg, i, 32, uint64(math.Float32bits(v)))
}

// maskBit reads bit i of the mask register v0.
func (h *Hart) maskBit(i uint64) bool {
	return h.V[i/8]>>(i%8)&1 == 1
}

// setMaskBit writes bit i of vector register reg (mask layout).
func (h *Hart) setMaskBit(reg uint8, i uint64, v bool) {
	o := uint64(reg)*uint64(h.VLenB) + i/8
	if v {
		h.V[o] |= 1 << (i % 8)
	} else {
		h.V[o] &^= 1 << (i % 8)
	}
}

// active reports whether element i participates given the instruction's
// mask bit (vm=true means unmasked).
func active(h *Hart, vm bool, i uint64) bool { return vm || h.maskBit(i) }

// executeVector handles every V-extension instruction.
//
//coyote:allocfree-boundary vector dispatch builds per-op closures; audited by its own AllocsPerRun tests, not the scalar hot-path walk
func (h *Hart) executeVector(in riscv.Instr) StepResult {
	switch in.Op {
	case riscv.OpVSETVLI:
		return h.vset(in, uint64(in.Imm), h.avlFrom(in))
	case riscv.OpVSETIVLI:
		return h.vset(in, uint64(in.Imm), uint64(in.Rs1))
	case riscv.OpVSETVL:
		return h.vset(in, h.X[in.Rs2], h.avlFrom(in))
	}

	if h.VType.SEW == 0 {
		h.Fault = fmt.Errorf("hart %d: pc=%#x: vector op %v before vsetvli",
			h.ID, h.PC, in.Op)
		h.Halted = true
		return StepFault
	}

	if in.Op.IsVectorMem() {
		return h.executeVMem(in)
	}
	return h.executeVArith(in)
}

func (h *Hart) avlFrom(in riscv.Instr) uint64 {
	if in.Rs1 != 0 {
		return h.X[in.Rs1]
	}
	if in.Rd != 0 {
		return ^uint64(0) // rs1=x0, rd!=x0: request VLMAX
	}
	return h.VL // rs1=rd=x0: keep current vl
}

func (h *Hart) vset(in riscv.Instr, vtypeRaw, avl uint64) StepResult {
	t, ok := riscv.DecodeVType(vtypeRaw)
	if !ok {
		h.Fault = fmt.Errorf("hart %d: pc=%#x: illegal vtype %#x", h.ID, h.PC, vtypeRaw)
		h.Halted = true
		return StepFault
	}
	h.VType = t
	h.vtypeRaw = vtypeRaw
	vlmax := h.VLMax()
	if avl > vlmax {
		avl = vlmax
	}
	h.VL = avl
	h.setX(in.Rd, h.VL)
	return StepExecuted
}

// executeVMem handles vector loads and stores: functional transfer plus
// element-granular L1D timing (the behaviour that makes sparse gathers
// expensive, which is exactly what Coyote is built to study).
func (h *Hart) executeVMem(in riscv.Instr) StepResult {
	isStore := in.Op.Classify()&riscv.ClassStore != 0
	ew := in.Op.ElemBytes() * 8 // encoded element width (bits)
	base := h.X[in.Rs1]
	h.addrScratch = h.addrScratch[:0]

	switch in.Op {
	case riscv.OpVLE8, riscv.OpVLE16, riscv.OpVLE32, riscv.OpVLE64,
		riscv.OpVSE8, riscv.OpVSE16, riscv.OpVSE32, riscv.OpVSE64:
		if in.VM && h.unitStride(in.Rd, base, uint64(in.Op.ElemBytes()), isStore) {
			return StepExecuted
		}
		for i := uint64(0); i < h.VL; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			a := base + i*uint64(ew/8)
			h.transferElem(in.Rd, i, ew, a, isStore)
			h.addrScratch = append(h.addrScratch, a)
		}
	case riscv.OpVLSE8, riscv.OpVLSE16, riscv.OpVLSE32, riscv.OpVLSE64,
		riscv.OpVSSE8, riscv.OpVSSE16, riscv.OpVSSE32, riscv.OpVSSE64:
		stride := h.X[in.Rs2]
		for i := uint64(0); i < h.VL; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			a := base + i*stride
			h.transferElem(in.Rd, i, ew, a, isStore)
			h.addrScratch = append(h.addrScratch, a)
		}
	case riscv.OpVLUXEI8, riscv.OpVLUXEI16, riscv.OpVLUXEI32, riscv.OpVLUXEI64,
		riscv.OpVSUXEI8, riscv.OpVSUXEI16, riscv.OpVSUXEI32, riscv.OpVSUXEI64:
		// Indexed: the encoded width is the *index* width; data elements
		// use the current SEW.
		sew := h.VType.SEW
		for i := uint64(0); i < h.VL; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			idx := h.vGetInt(in.Rs2, i, ew)
			a := base + idx
			h.transferElem(in.Rd, i, sew, a, isStore)
			h.addrScratch = append(h.addrScratch, a)
		}
		if h.mcpuOffload {
			// ACME MCPU path: ship the whole scatter/gather as one
			// descriptor to the memory side, bypassing L1/L2.
			h.Stats.ElemAccesses += uint64(len(h.addrScratch))
			desc := h.getGatherBuf(len(h.addrScratch))
			copy(desc, h.addrScratch)
			ev := MemEvent{Gather: desc, Write: isStore}
			if !isStore {
				ev.HasDest = true
				ev.Dest = RegV
				ev.DestReg = in.Rd
				h.markPending(RegV, in.Rd)
				h.Stats.LoadMisses++ // one logical memory transaction
			} else {
				h.Stats.StoreMisses++
				for _, a := range h.addrScratch {
					h.storeInvalidate(a)
				}
			}
			h.emit(ev)
			return StepExecuted
		}
	default:
		h.Fault = fmt.Errorf("hart %d: unimplemented vector mem op %v", h.ID, in.Op)
		h.Halted = true
		return StepFault
	}

	h.Stats.ElemAccesses += uint64(len(h.addrScratch))
	h.dataAccess(h.addrScratch, isStore, RegV, in.Rd, !isStore)
	if isStore {
		for _, a := range h.addrScratch {
			h.storeInvalidate(a)
		}
	}
	return StepExecuted
}

// unitStride is the line-granular form of an unmasked unit-stride access
// of vl elements of eb bytes at base: the bytes move between register
// group vreg and memory in one copy per page, and each cache line an
// element starts in — LineAddr(base) through the line of the last
// element's first byte, ascending — gets one L1D access and one
// reservation kill. Those are exactly the lines, order, statistics and
// events the per-element path's line dedup produces. It reports false,
// having done nothing, where the per-element path must run: under armed
// speculation (which logs every element's read or write), in functional
// warming (whose line filter works per element), at vl 0, when the
// elements wrap the address space, or when the group runs past the
// register file.
func (h *Hart) unitStride(vreg uint8, base, eb uint64, isStore bool) bool {
	n := h.VL * eb
	off := uint64(vreg) * uint64(h.VLenB)
	last := base + n - eb
	if h.spec.active || h.warmLine != nil || n == 0 || last < base || off+n > uint64(len(h.V)) {
		return false
	}
	if isStore {
		//coyote:specwrite-ok armed speculation returned above: its stores take the per-element path, which journals them
		h.Mem.WriteBytes(base, h.V[off:off+n])
	} else {
		h.Mem.ReadInto(base, h.V[off:off+n])
	}
	h.Stats.ElemAccesses += h.VL
	end := h.L1D.LineAddr(last)
	for line := h.L1D.LineAddr(base); ; line += uint64(h.L1D.LineBytes()) {
		h.lineAccess(line, isStore, RegV, vreg, !isStore)
		if isStore {
			h.storeInvalidate(line)
		}
		if line == end {
			return true
		}
	}
}

// transferElem moves one element between vector register elements and
// functional memory.
func (h *Hart) transferElem(vreg uint8, i uint64, ew uint, addr uint64, isStore bool) {
	if isStore {
		v := h.vGetInt(vreg, i, ew)
		switch ew {
		case 8:
			h.memWrite8(addr, uint8(v))
		case 16:
			h.memWrite16(addr, uint16(v))
		case 32:
			h.memWrite32(addr, uint32(v))
		default:
			h.memWrite64(addr, v)
		}
		return
	}
	var v uint64
	switch ew {
	case 8:
		v = uint64(h.memRead8(addr))
	case 16:
		v = uint64(h.memRead16(addr))
	case 32:
		v = uint64(h.memRead32(addr))
	default:
		v = h.memRead64(addr)
	}
	h.vSetInt(vreg, i, ew, v)
}

// executeVArith handles vector register-register/scalar/immediate ops.
func (h *Hart) executeVArith(in riscv.Instr) StepResult {
	sew := h.VType.SEW
	vl := h.VL
	op := in.Op

	// Integer binary ops share a loop; pick the operand fetch per form.
	intBin := func(f func(a, b uint64) uint64, scalarB uint64, useScalar bool) {
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			a := h.vGetInt(in.Rs2, i, sew)
			b := scalarB
			if !useScalar {
				b = h.vGetInt(in.Rs1, i, sew)
			}
			h.vSetInt(in.Rd, i, sew, f(a, b))
		}
	}
	intCmp := func(f func(a, b uint64) bool, scalarB uint64, useScalar bool) {
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			a := h.vGetInt(in.Rs2, i, sew)
			b := scalarB
			if !useScalar {
				b = h.vGetInt(in.Rs1, i, sew)
			}
			h.setMaskBit(in.Rd, i, f(a, b))
		}
	}
	f64Bin := func(f func(a, b float64) float64, scalarB float64, useScalar bool) {
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			a := h.vGetF64(in.Rs2, i)
			b := scalarB
			if !useScalar {
				b = h.vGetF64(in.Rs1, i)
			}
			h.vSetF64(in.Rd, i, f(a, b))
		}
	}
	f32Bin := func(f func(a, b float32) float32, scalarB float32, useScalar bool) {
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			a := h.vGetF32(in.Rs2, i)
			b := scalarB
			if !useScalar {
				b = h.vGetF32(in.Rs1, i)
			}
			h.vSetF32(in.Rd, i, f(a, b))
		}
	}

	sewMask := ^uint64(0)
	if sew < 64 {
		sewMask = 1<<sew - 1
	}
	shiftMask := uint64(sew - 1)

	switch op {
	// ----- integer -----
	case riscv.OpVADDVV:
		intBin(func(a, b uint64) uint64 { return a + b }, 0, false)
	case riscv.OpVADDVX:
		intBin(func(a, b uint64) uint64 { return a + b }, h.X[in.Rs1], true)
	case riscv.OpVADDVI:
		intBin(func(a, b uint64) uint64 { return a + b }, uint64(in.Imm), true)
	case riscv.OpVSUBVV:
		intBin(func(a, b uint64) uint64 { return a - b }, 0, false)
	case riscv.OpVSUBVX:
		intBin(func(a, b uint64) uint64 { return a - b }, h.X[in.Rs1], true)
	case riscv.OpVRSUBVX:
		intBin(func(a, b uint64) uint64 { return b - a }, h.X[in.Rs1], true)
	case riscv.OpVRSUBVI:
		intBin(func(a, b uint64) uint64 { return b - a }, uint64(in.Imm), true)
	case riscv.OpVANDVV:
		intBin(func(a, b uint64) uint64 { return a & b }, 0, false)
	case riscv.OpVANDVX:
		intBin(func(a, b uint64) uint64 { return a & b }, h.X[in.Rs1], true)
	case riscv.OpVANDVI:
		intBin(func(a, b uint64) uint64 { return a & b }, uint64(in.Imm), true)
	case riscv.OpVORVV:
		intBin(func(a, b uint64) uint64 { return a | b }, 0, false)
	case riscv.OpVORVX:
		intBin(func(a, b uint64) uint64 { return a | b }, h.X[in.Rs1], true)
	case riscv.OpVORVI:
		intBin(func(a, b uint64) uint64 { return a | b }, uint64(in.Imm), true)
	case riscv.OpVXORVV:
		intBin(func(a, b uint64) uint64 { return a ^ b }, 0, false)
	case riscv.OpVXORVX:
		intBin(func(a, b uint64) uint64 { return a ^ b }, h.X[in.Rs1], true)
	case riscv.OpVXORVI:
		intBin(func(a, b uint64) uint64 { return a ^ b }, uint64(in.Imm), true)
	case riscv.OpVSLLVV:
		intBin(func(a, b uint64) uint64 { return a << (b & shiftMask) }, 0, false)
	case riscv.OpVSLLVX:
		intBin(func(a, b uint64) uint64 { return a << (b & shiftMask) }, h.X[in.Rs1], true)
	case riscv.OpVSLLVI:
		intBin(func(a, b uint64) uint64 { return a << (b & shiftMask) }, uint64(in.Imm), true)
	case riscv.OpVSRLVV:
		intBin(func(a, b uint64) uint64 { return (a & sewMask) >> (b & shiftMask) }, 0, false)
	case riscv.OpVSRLVX:
		intBin(func(a, b uint64) uint64 { return (a & sewMask) >> (b & shiftMask) }, h.X[in.Rs1], true)
	case riscv.OpVSRLVI:
		intBin(func(a, b uint64) uint64 { return (a & sewMask) >> (b & shiftMask) }, uint64(in.Imm), true)
	case riscv.OpVSRAVV, riscv.OpVSRAVX, riscv.OpVSRAVI:
		var scalar uint64
		useScalar := true
		switch op {
		case riscv.OpVSRAVV:
			useScalar = false
		case riscv.OpVSRAVX:
			scalar = h.X[in.Rs1]
		default:
			scalar = uint64(in.Imm)
		}
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			a := h.vGetIntSext(in.Rs2, i, sew)
			b := scalar
			if !useScalar {
				b = h.vGetInt(in.Rs1, i, sew)
			}
			h.vSetInt(in.Rd, i, sew, uint64(a>>(b&shiftMask)))
		}
	case riscv.OpVMINVV, riscv.OpVMINVX, riscv.OpVMAXVV, riscv.OpVMAXVX:
		useScalar := op == riscv.OpVMINVX || op == riscv.OpVMAXVX
		isMin := op == riscv.OpVMINVV || op == riscv.OpVMINVX
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			a := h.vGetIntSext(in.Rs2, i, sew)
			var b int64
			if useScalar {
				b = int64(h.X[in.Rs1])
			} else {
				b = h.vGetIntSext(in.Rs1, i, sew)
			}
			r := a
			if (isMin && b < a) || (!isMin && b > a) {
				r = b
			}
			h.vSetInt(in.Rd, i, sew, uint64(r))
		}

	case riscv.OpVMULVV:
		intBin(func(a, b uint64) uint64 { return a * b }, 0, false)
	case riscv.OpVMULVX:
		intBin(func(a, b uint64) uint64 { return a * b }, h.X[in.Rs1], true)
	case riscv.OpVMULHVV:
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			a := h.vGetIntSext(in.Rs2, i, sew)
			b := h.vGetIntSext(in.Rs1, i, sew)
			prod := a * b // full product fits in 128; for sew<64 this is exact
			if sew == 64 {
				h.vSetInt(in.Rd, i, sew, mulh(a, b))
			} else {
				h.vSetInt(in.Rd, i, sew, uint64(prod)>>sew)
			}
		}
	case riscv.OpVMACCVV:
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			acc := h.vGetInt(in.Rd, i, sew)
			h.vSetInt(in.Rd, i, sew,
				acc+h.vGetInt(in.Rs1, i, sew)*h.vGetInt(in.Rs2, i, sew))
		}
	case riscv.OpVMACCVX:
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			acc := h.vGetInt(in.Rd, i, sew)
			h.vSetInt(in.Rd, i, sew, acc+h.X[in.Rs1]*h.vGetInt(in.Rs2, i, sew))
		}

	// ----- comparisons (write mask register) -----
	case riscv.OpVMSEQVV:
		intCmp(func(a, b uint64) bool { return a == b }, 0, false)
	case riscv.OpVMSEQVX:
		intCmp(func(a, b uint64) bool { return a == b }, h.X[in.Rs1]&sewMask, true)
	case riscv.OpVMSEQVI:
		intCmp(func(a, b uint64) bool { return a == b }, uint64(in.Imm)&sewMask, true)
	case riscv.OpVMSNEVV:
		intCmp(func(a, b uint64) bool { return a != b }, 0, false)
	case riscv.OpVMSNEVX:
		intCmp(func(a, b uint64) bool { return a != b }, h.X[in.Rs1]&sewMask, true)
	case riscv.OpVMSLTVV, riscv.OpVMSLTVX, riscv.OpVMSLEVV, riscv.OpVMSLEVX:
		useScalar := op == riscv.OpVMSLTVX || op == riscv.OpVMSLEVX
		le := op == riscv.OpVMSLEVV || op == riscv.OpVMSLEVX
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			a := h.vGetIntSext(in.Rs2, i, sew)
			var b int64
			if useScalar {
				b = int64(h.X[in.Rs1])
			} else {
				b = h.vGetIntSext(in.Rs1, i, sew)
			}
			if le {
				h.setMaskBit(in.Rd, i, a <= b)
			} else {
				h.setMaskBit(in.Rd, i, a < b)
			}
		}

	// ----- moves / slides / index -----
	case riscv.OpVMVVV:
		for i := uint64(0); i < vl; i++ {
			h.vSetInt(in.Rd, i, sew, h.vGetInt(in.Rs1, i, sew))
		}
	case riscv.OpVMVVX:
		for i := uint64(0); i < vl; i++ {
			h.vSetInt(in.Rd, i, sew, h.X[in.Rs1])
		}
	case riscv.OpVMVVI:
		for i := uint64(0); i < vl; i++ {
			h.vSetInt(in.Rd, i, sew, uint64(in.Imm))
		}
	case riscv.OpVMVXS:
		h.setX(in.Rd, uint64(h.vGetIntSext(in.Rs2, 0, sew)))
	case riscv.OpVMVSX:
		if vl > 0 {
			h.vSetInt(in.Rd, 0, sew, h.X[in.Rs1])
		}
	case riscv.OpVIDV:
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			h.vSetInt(in.Rd, i, sew, i)
		}
	case riscv.OpVSLIDEDOWNVX, riscv.OpVSLIDEDOWNVI:
		off := uint64(in.Imm)
		if op == riscv.OpVSLIDEDOWNVX {
			off = h.X[in.Rs1]
		}
		vlmax := h.VLMax()
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			var v uint64
			if i+off < vlmax {
				v = h.vGetInt(in.Rs2, i+off, sew)
			}
			h.vSetInt(in.Rd, i, sew, v)
		}
	case riscv.OpVSLIDE1DOWNVX:
		for i := uint64(0); i+1 < vl; i++ {
			h.vSetInt(in.Rd, i, sew, h.vGetInt(in.Rs2, i+1, sew))
		}
		if vl > 0 {
			h.vSetInt(in.Rd, vl-1, sew, h.X[in.Rs1])
		}

	// ----- integer reductions -----
	case riscv.OpVREDSUMVS:
		sum := h.vGetInt(in.Rs1, 0, sew)
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			sum += h.vGetInt(in.Rs2, i, sew)
		}
		h.vSetInt(in.Rd, 0, sew, sum)
	case riscv.OpVREDMAXVS:
		best := h.vGetIntSext(in.Rs1, 0, sew)
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			if v := h.vGetIntSext(in.Rs2, i, sew); v > best {
				best = v
			}
		}
		h.vSetInt(in.Rd, 0, sew, uint64(best))

	// ----- floating point -----
	case riscv.OpVFADDVV, riscv.OpVFADDVF, riscv.OpVFSUBVV, riscv.OpVFSUBVF,
		riscv.OpVFMULVV, riscv.OpVFMULVF, riscv.OpVFDIVVV, riscv.OpVFDIVVF,
		riscv.OpVFMINVV, riscv.OpVFMAXVV:
		if sew != 32 && sew != 64 {
			return h.vfault(in, "FP op with SEW %d", sew)
		}
		useScalar := op == riscv.OpVFADDVF || op == riscv.OpVFSUBVF ||
			op == riscv.OpVFMULVF || op == riscv.OpVFDIVVF
		if sew == 64 {
			var f func(a, b float64) float64
			switch op {
			case riscv.OpVFADDVV, riscv.OpVFADDVF:
				f = func(a, b float64) float64 { return a + b }
			case riscv.OpVFSUBVV, riscv.OpVFSUBVF:
				f = func(a, b float64) float64 { return a - b }
			case riscv.OpVFMULVV, riscv.OpVFMULVF:
				f = func(a, b float64) float64 { return a * b }
			case riscv.OpVFDIVVV, riscv.OpVFDIVVF:
				f = func(a, b float64) float64 { return a / b }
			case riscv.OpVFMINVV:
				f = fmin64
			case riscv.OpVFMAXVV:
				f = fmax64
			}
			f64Bin(f, h.getF64(in.Rs1), useScalar)
		} else {
			var f func(a, b float32) float32
			switch op {
			case riscv.OpVFADDVV, riscv.OpVFADDVF:
				f = func(a, b float32) float32 { return a + b }
			case riscv.OpVFSUBVV, riscv.OpVFSUBVF:
				f = func(a, b float32) float32 { return a - b }
			case riscv.OpVFMULVV, riscv.OpVFMULVF:
				f = func(a, b float32) float32 { return a * b }
			case riscv.OpVFDIVVV, riscv.OpVFDIVVF:
				f = func(a, b float32) float32 { return a / b }
			case riscv.OpVFMINVV:
				f = fmin32
			case riscv.OpVFMAXVV:
				f = fmax32
			}
			f32Bin(f, h.getF32(in.Rs1), useScalar)
		}
	case riscv.OpVFMACCVV, riscv.OpVFMACCVF, riscv.OpVFNMSACVV:
		if sew != 32 && sew != 64 {
			return h.vfault(in, "FP op with SEW %d", sew)
		}
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			if sew == 64 {
				acc := h.vGetF64(in.Rd, i)
				b := h.vGetF64(in.Rs2, i)
				var a float64
				if op == riscv.OpVFMACCVF {
					a = h.getF64(in.Rs1)
				} else {
					a = h.vGetF64(in.Rs1, i)
				}
				if op == riscv.OpVFNMSACVV {
					h.vSetF64(in.Rd, i, math.FMA(-a, b, acc))
				} else {
					h.vSetF64(in.Rd, i, math.FMA(a, b, acc))
				}
			} else {
				acc := h.vGetF32(in.Rd, i)
				b := h.vGetF32(in.Rs2, i)
				var a float32
				if op == riscv.OpVFMACCVF {
					a = h.getF32(in.Rs1)
				} else {
					a = h.vGetF32(in.Rs1, i)
				}
				if op == riscv.OpVFNMSACVV {
					h.vSetF32(in.Rd, i, fmaf32(-a, b, acc))
				} else {
					h.vSetF32(in.Rd, i, fmaf32(a, b, acc))
				}
			}
		}
	case riscv.OpVFSQRTV:
		if sew != 32 && sew != 64 {
			return h.vfault(in, "FP op with SEW %d", sew)
		}
		for i := uint64(0); i < vl; i++ {
			if !active(h, in.VM, i) {
				continue
			}
			if sew == 64 {
				h.vSetF64(in.Rd, i, math.Sqrt(h.vGetF64(in.Rs2, i)))
			} else {
				h.vSetF32(in.Rd, i, float32(math.Sqrt(float64(h.vGetF32(in.Rs2, i)))))
			}
		}
	case riscv.OpVFMVVF:
		if sew == 64 {
			v := h.getF64(in.Rs1)
			for i := uint64(0); i < vl; i++ {
				h.vSetF64(in.Rd, i, v)
			}
		} else {
			v := h.getF32(in.Rs1)
			for i := uint64(0); i < vl; i++ {
				h.vSetF32(in.Rd, i, v)
			}
		}
	case riscv.OpVFMVFS:
		if sew == 64 {
			h.setF64(in.Rd, h.vGetF64(in.Rs2, 0))
		} else {
			h.setF32(in.Rd, h.vGetF32(in.Rs2, 0))
		}
	case riscv.OpVFMVSF:
		if vl > 0 {
			if sew == 64 {
				h.vSetF64(in.Rd, 0, h.getF64(in.Rs1))
			} else {
				h.vSetF32(in.Rd, 0, h.getF32(in.Rs1))
			}
		}
	case riscv.OpVFREDUSUMVS, riscv.OpVFREDOSUMVS:
		if sew == 64 {
			sum := h.vGetF64(in.Rs1, 0)
			for i := uint64(0); i < vl; i++ {
				if !active(h, in.VM, i) {
					continue
				}
				sum += h.vGetF64(in.Rs2, i)
			}
			h.vSetF64(in.Rd, 0, sum)
		} else {
			sum := h.vGetF32(in.Rs1, 0)
			for i := uint64(0); i < vl; i++ {
				if !active(h, in.VM, i) {
					continue
				}
				sum += h.vGetF32(in.Rs2, i)
			}
			h.vSetF32(in.Rd, 0, sum)
		}

	default:
		return h.vfault(in, "unimplemented vector op")
	}
	return StepExecuted
}

func (h *Hart) vfault(in riscv.Instr, format string, args ...any) StepResult {
	h.Fault = fmt.Errorf("hart %d: pc=%#x: %v: %s",
		h.ID, h.PC, in.Op, fmt.Sprintf(format, args...))
	h.Halted = true
	return StepFault
}
