package cpu

// Edge-case tests for the floating-point model: single-precision
// arithmetic, NaN propagation in min/max, saturating conversions,
// classification, NaN-boxing, and the 32-bit AMO min/max family.

import (
	"math"
	"testing"

	"github.com/coyote-sim/coyote/internal/riscv"
)

func TestFP32MinMaxSgnj(t *testing.T) {
	runISACase(t, isaCase{
		name: "fp32_minmax",
		src: `
		li a1, -3
		fcvt.s.l fa0, a1
		li a2, 2
		fcvt.s.l fa1, a2
		fmin.s fa2, fa0, fa1
		fmax.s fa3, fa0, fa1
		fneg.s fa4, fa1
		fabs.s fa5, fa4
		fsgnj.s fa6, fa1, fa0
		fcvt.d.s fa2, fa2
		fcvt.d.s fa3, fa3
		fcvt.d.s fa4, fa4
		fcvt.d.s fa5, fa5
		fcvt.d.s fa6, fa6`,
		f: map[uint8]float64{12: -3, 13: 2, 14: -2, 15: 2, 16: -2},
	})
}

func TestFPNaNSemantics(t *testing.T) {
	h := newTestHart(t)
	// fmin/fmax with one NaN operand return the other operand (RISC-V
	// -2008 semantics).
	h.F[1] = math.Float64bits(math.NaN())
	h.setF64(2, 7.0)
	load(t, h,
		ins(riscv.OpFMIND, 3, 1, 2, 0),
		ins(riscv.OpFMAXD, 4, 1, 2, 0),
		ins(riscv.OpFEQD, 5, 1, 1, 0), // NaN != NaN
		ins(riscv.OpFLTD, 6, 1, 2, 0), // NaN comparisons are false
	)
	run(t, h, 20)
	if h.getF64(3) != 7 || h.getF64(4) != 7 {
		t.Errorf("fmin/fmax with NaN = %v, %v; want 7, 7", h.getF64(3), h.getF64(4))
	}
	if h.X[5] != 0 || h.X[6] != 0 {
		t.Errorf("NaN compares = %d, %d; want 0, 0", h.X[5], h.X[6])
	}
}

func TestSaturatingConversions(t *testing.T) {
	h := newTestHart(t)
	h.setF64(1, math.NaN())
	h.setF64(2, 1e300)
	h.setF64(3, -1e300)
	h.setF64(4, -5.0)
	load(t, h,
		ins(riscv.OpFCVTWD, 5, 1, 0, 0),   // NaN → INT32_MAX
		ins(riscv.OpFCVTWD, 6, 2, 0, 0),   // +huge → INT32_MAX
		ins(riscv.OpFCVTWD, 7, 3, 0, 0),   // -huge → INT32_MIN
		ins(riscv.OpFCVTWUD, 28, 4, 0, 0), // negative → 0
		ins(riscv.OpFCVTLUD, 29, 2, 0, 0), // +huge → UINT64_MAX
		ins(riscv.OpFCVTLD, 30, 3, 0, 0),  // -huge → INT64_MIN
		ins(riscv.OpFCVTWUD, 31, 1, 0, 0), // NaN → UINT32_MAX
	)
	run(t, h, 20)
	checks := map[uint8]uint64{
		5:  uint64(int64(math.MaxInt32)),
		6:  uint64(int64(math.MaxInt32)),
		7:  sext32(1 << 31),
		28: 0,
		29: math.MaxUint64,
		30: 1 << 63,
		31: sext32(math.MaxUint32),
	}
	for r, want := range checks {
		if h.X[r] != want {
			t.Errorf("x%d = %#x, want %#x", r, h.X[r], want)
		}
	}
}

func TestFClassMatrix(t *testing.T) {
	h := newTestHart(t)
	h.setF64(1, math.Inf(-1))
	h.setF64(2, math.Inf(1))
	h.setF64(3, math.NaN())
	h.F[4] = 1 << 63            // -0.0
	h.F[5] = 0x0000000000000001 // smallest positive subnormal
	h.F[6] = 0x8000000000000001 // negative subnormal
	load(t, h,
		ins(riscv.OpFCLASSD, 10, 1, 0, 0),
		ins(riscv.OpFCLASSD, 11, 2, 0, 0),
		ins(riscv.OpFCLASSD, 12, 3, 0, 0),
		ins(riscv.OpFCLASSD, 13, 4, 0, 0),
		ins(riscv.OpFCLASSD, 14, 5, 0, 0),
		ins(riscv.OpFCLASSD, 15, 6, 0, 0),
	)
	run(t, h, 20)
	checks := map[uint8]uint64{
		10: 1 << 0, // -inf
		11: 1 << 7, // +inf
		12: 1 << 9, // quiet NaN
		13: 1 << 3, // -0
		14: 1 << 5, // +subnormal
		15: 1 << 2, // -subnormal
	}
	for r, want := range checks {
		if h.X[r] != want {
			t.Errorf("fclass x%d = %#x, want %#x", r, h.X[r], want)
		}
	}
}

func TestNaNBoxing(t *testing.T) {
	h := newTestHart(t)
	// A single written via fcvt.s.* must be NaN-boxed; reading it as a
	// double must see the box.
	h.X[10] = 3
	load(t, h, ins(riscv.OpFCVTSW, 1, 10, 0, 0))
	run(t, h, 10)
	if h.F[1]&nanBoxMask != nanBoxMask {
		t.Errorf("single not NaN-boxed: %#x", h.F[1])
	}
	// An improperly-boxed value read as single is treated as NaN.
	h.F[2] = uint64(math.Float32bits(1.5)) // upper bits zero: invalid box
	if v := h.getF32(2); v == v {
		t.Errorf("unboxed single should read as NaN, got %v", v)
	}
}

func TestAMO32MinMax(t *testing.T) {
	runISACase(t, isaCase{
		name: "amo32_minmax",
		src: `
		la a0, scratch
		li a1, -5
		sw a1, 0(a0)
		li a2, 3
		amomax.w a3, a2, (a0)    # old -5, mem 3
		lw a4, 0(a0)
		li a5, -7
		amomin.w a6, a5, (a0)    # old 3, mem -7
		lw a7, 0(a0)
		li s2, 1
		amominu.w s3, s2, (a0)   # unsigned: -7 is huge; mem 1
		lw s4, 0(a0)
		li s5, -1
		amomaxu.w s6, s5, (a0)   # unsigned max: mem 0xffffffff → lw sext -1
		lw s7, 0(a0)
		li s8, 10
		amoxor.w s9, s8, (a0)
		li s10, 12
		amoand.w s11, s10, (a0)`,
		x: map[uint8]uint64{
			13: u(-5), 14: 3,
			16: 3, 17: u(-7),
			19: u(-7), 20: 1,
			22: 1, 23: u(-1),
		},
	})
}

func TestVectorFP32(t *testing.T) {
	h := newTestHart(t)
	for i := 0; i < 4; i++ {
		h.Mem.Write32(0x1000+uint64(i*4), math.Float32bits(float32(i)+0.5))
	}
	h.X[10] = 4
	h.X[11] = 0x1000
	h.X[13] = 0x2000
	h.setF32(1, 2.0)
	load(t, h,
		vsetvli(5, 10, 32, 1),
		riscv.Instr{Op: riscv.OpVLE32, Rd: 1, Rs1: 11, VM: true},
		riscv.Instr{Op: riscv.OpVFMULVF, Rd: 2, Rs1: 1, Rs2: 1, VM: true}, // v2 = v1 * fa1(=f1)
		riscv.Instr{Op: riscv.OpVSE32, Rd: 2, Rs1: 13, VM: true},
	)
	run(t, h, 50)
	for i := 0; i < 4; i++ {
		want := (float32(i) + 0.5) * 2.0
		got := math.Float32frombits(h.Mem.Read32(0x2000 + uint64(i*4)))
		if got != want {
			t.Errorf("fp32 lane %d = %v, want %v", i, got, want)
		}
	}
	// SEW=32 reductions and scalar moves. A second program loaded over
	// the first needs a new text image.
	h.SetText(&Text{})
	load(t, h,
		vsetvli(5, 10, 32, 1),
		riscv.Instr{Op: riscv.OpVLE32, Rd: 1, Rs1: 11, VM: true},
		riscv.Instr{Op: riscv.OpVMVVI, Rd: 2, Imm: 0, VM: true},
		riscv.Instr{Op: riscv.OpVFREDUSUMVS, Rd: 3, Rs1: 2, Rs2: 1, VM: true},
		riscv.Instr{Op: riscv.OpVFMVFS, Rd: 2, Rs2: 3, VM: true},
	)
	h.PC = textBase
	h.Halted = false
	run(t, h, 50)
	want := float32(0.5 + 1.5 + 2.5 + 3.5)
	if got := h.getF32(2); got != want {
		t.Errorf("fp32 reduction = %v, want %v", got, want)
	}
}

func TestVsetvlVLMaxRequest(t *testing.T) {
	h := newTestHart(t)
	load(t, h,
		// rs1 = x0, rd != x0 → request VLMAX.
		riscv.Instr{Op: riscv.OpVSETVLI, Rd: 5, Rs1: 0,
			Imm: mustVType(64, 2), VM: true},
	)
	run(t, h, 10)
	want := uint64(h.VLenB) * 8 * 2 / 64
	if h.VL != want || h.X[5] != want {
		t.Errorf("VLMAX request: vl = %d, want %d", h.VL, want)
	}
	// rs1 = rd = x0 → keep current vl (vtype may change).
	h.SetText(&Text{})
	load(t, h,
		riscv.Instr{Op: riscv.OpVSETVLI, Rd: 5, Rs1: 0,
			Imm: mustVType(64, 2), VM: true},
		riscv.Instr{Op: riscv.OpVSETVLI, Rd: 0, Rs1: 0,
			Imm: mustVType(64, 2), VM: true},
	)
	h.PC = textBase
	h.Halted = false
	run(t, h, 10)
	if h.VL != want {
		t.Errorf("keep-vl form: vl = %d, want %d", h.VL, want)
	}
}

func mustVType(sew, lmul uint) int64 {
	v, err := riscv.EncodeVType(riscv.VType{SEW: sew, LMUL: lmul, TA: true, MA: true})
	if err != nil {
		panic(err)
	}
	return v
}

// TestFP32DivQuotient pins FDIV.S as an actual division: 7/2 is exact in
// binary32, so the quotient is 3.5 with no rounding slack — an operator
// slip (e.g. to multiplication, yielding 14) cannot pass.
func TestFP32DivQuotient(t *testing.T) {
	runISACase(t, isaCase{
		name: "fp32_div",
		src: `
		li a1, 7
		fcvt.s.l fa0, a1
		li a2, 2
		fcvt.s.l fa1, a2
		fdiv.s fa2, fa0, fa1
		fcvt.d.s fa2, fa2`,
		f: map[uint8]float64{12: 3.5},
	})
}
