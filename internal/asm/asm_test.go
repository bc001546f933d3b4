package asm

import (
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/coyote-sim/coyote/internal/riscv"
)

// word extracts the i-th text word.
func word(t *testing.T, p *Program, i int) uint32 {
	t.Helper()
	if len(p.Text) < 4*(i+1) {
		t.Fatalf("text too short: %d bytes, want word %d", len(p.Text), i)
	}
	return binary.LittleEndian.Uint32(p.Text[4*i:])
}

// decode the i-th text word.
func decodeWord(t *testing.T, p *Program, i int) riscv.Instr {
	t.Helper()
	in, err := riscv.Decode(word(t, p, i))
	if err != nil {
		t.Fatalf("word %d (%#08x): %v", i, word(t, p, i), err)
	}
	return in
}

const basicSrc = `
		addi a0, zero, 42     # comment
		add  a1, a0, a0       // another comment
		sub  t0, a1, a0
	`

func TestBasicInstructions(t *testing.T) {
	p, err := Assemble(basicSrc)
	if err != nil {
		t.Fatal(err)
	}
	in := decodeWord(t, p, 0)
	if in.Op != riscv.OpADDI || in.Rd != 10 || in.Imm != 42 {
		t.Errorf("addi = %+v", in)
	}
	in = decodeWord(t, p, 1)
	if in.Op != riscv.OpADD || in.Rd != 11 || in.Rs1 != 10 || in.Rs2 != 10 {
		t.Errorf("add = %+v", in)
	}
}

const loadStoreSrc = `
		ld  a0, 16(sp)
		sd  a0, -8(s0)
		lw  t1, 0(a2)
		flw fa0, 4(a0)
		fsd fa1, 8(a0)
	`

func TestLoadsStores(t *testing.T) {
	p, err := Assemble(loadStoreSrc)
	if err != nil {
		t.Fatal(err)
	}
	in := decodeWord(t, p, 0)
	if in.Op != riscv.OpLD || in.Imm != 16 || in.Rs1 != 2 {
		t.Errorf("ld = %+v", in)
	}
	in = decodeWord(t, p, 1)
	if in.Op != riscv.OpSD || in.Imm != -8 || in.Rs1 != 8 || in.Rs2 != 10 {
		t.Errorf("sd = %+v", in)
	}
	in = decodeWord(t, p, 3)
	if in.Op != riscv.OpFLW || in.Rd != 10 {
		t.Errorf("flw = %+v", in)
	}
}

const branchSrc = `
	loop:
		addi a0, a0, -1
		bnez a0, loop
		beq  a0, a1, done
		j    loop
	done:
		ret
	`

func TestLabelsAndBranches(t *testing.T) {
	p, err := Assemble(branchSrc)
	if err != nil {
		t.Fatal(err)
	}
	// bnez → bne a0, zero, -4
	in := decodeWord(t, p, 1)
	if in.Op != riscv.OpBNE || in.Imm != -4 {
		t.Errorf("bnez = %+v", in)
	}
	// beq +8 to done (pc=8, done=16)
	in = decodeWord(t, p, 2)
	if in.Op != riscv.OpBEQ || in.Imm != 8 {
		t.Errorf("beq = %+v", in)
	}
	// j loop → jal zero, -12
	in = decodeWord(t, p, 3)
	if in.Op != riscv.OpJAL || in.Rd != 0 || in.Imm != -12 {
		t.Errorf("j = %+v", in)
	}
	// ret → jalr zero, ra, 0
	in = decodeWord(t, p, 4)
	if in.Op != riscv.OpJALR || in.Rs1 != 1 {
		t.Errorf("ret = %+v", in)
	}
}

func TestLiExpansion(t *testing.T) {
	cases := []struct {
		value int64
		words int
	}{
		{0, 1},
		{42, 1},
		{-1, 1},
		{2047, 1},
		{2048, 2},    // lui+addiw
		{1 << 20, 1}, // lui only
		{0x12345678, 2},
		{-0x12345678, 2},
		{0x123456789abc, 6},     // 46-bit
		{-0x7edcba987654321, 8}, // big negative
	}
	for _, c := range cases {
		seq := expandLI(5, c.value)
		if len(seq) != c.words {
			t.Errorf("li %#x: %d words, want %d", c.value, len(seq), c.words)
		}
		// Simulate the sequence to verify the value.
		var reg int64
		for _, in := range seq {
			switch in.Op {
			case riscv.OpADDI:
				if in.Rs1 == 0 {
					reg = in.Imm
				} else {
					reg += in.Imm
				}
			case riscv.OpADDIW:
				reg = int64(int32(reg + in.Imm))
			case riscv.OpLUI:
				reg = int64(int32(uint32(in.Imm) << 12))
			case riscv.OpSLLI:
				reg <<= uint(in.Imm)
			default:
				t.Fatalf("unexpected op %v in li expansion", in.Op)
			}
		}
		if reg != c.value {
			t.Errorf("li %#x materialised %#x", c.value, reg)
		}
	}
}

func TestLiProperty(t *testing.T) {
	// Property: for many values, the li expansion materialises the value.
	vals := []int64{0, 1, -1, 1 << 11, -(1 << 11), 1<<31 - 1, -(1 << 31),
		1 << 31, 1 << 43, -(1 << 43), 0x7fffffffffffffff, -0x8000000000000000,
		0x00ff00ff00ff00ff, -0x0123456789abcdef}
	for _, v := range vals {
		var reg int64
		for _, in := range expandLI(3, v) {
			switch in.Op {
			case riscv.OpADDI:
				if in.Rs1 == 0 {
					reg = in.Imm
				} else {
					reg += in.Imm
				}
			case riscv.OpADDIW:
				reg = int64(int32(reg + in.Imm))
			case riscv.OpLUI:
				reg = int64(int32(uint32(in.Imm) << 12))
			case riscv.OpSLLI:
				reg <<= uint(in.Imm)
			}
		}
		if reg != v {
			t.Errorf("li %#x materialised %#x", v, reg)
		}
	}
}

const laSrc = `
		la a0, buf
		ebreak
	.data
	buf:
		.dword 7
	`

func TestLaPCRelative(t *testing.T) {
	p, err := Assemble(laSrc)
	if err != nil {
		t.Fatal(err)
	}
	auipc := decodeWord(t, p, 0)
	addi := decodeWord(t, p, 1)
	if auipc.Op != riscv.OpAUIPC || addi.Op != riscv.OpADDI {
		t.Fatalf("la expanded to %v, %v", auipc.Op, addi.Op)
	}
	hi := int64(int32(uint32(auipc.Imm) << 12))
	got := int64(p.TextBase) + hi + addi.Imm
	if uint64(got) != p.Symbols["buf"] {
		t.Errorf("la resolves to %#x, want %#x", got, p.Symbols["buf"])
	}
	if p.Symbols["buf"] != p.DataBase {
		t.Errorf("buf at %#x, want data base %#x", p.Symbols["buf"], p.DataBase)
	}
}

const dataSrc = `
	.data
	a:	.byte 1, 2, 3
	.align 3
	b:	.dword 0x1122334455667788
	c:	.double 2.5
	s:	.asciz "hi"
	z:	.zero 4
	`

func TestDataDirectives(t *testing.T) {
	p, err := Assemble(dataSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["a"] != p.DataBase {
		t.Errorf("a = %#x", p.Symbols["a"])
	}
	if p.Symbols["b"] != p.DataBase+8 { // aligned from 3 → 8
		t.Errorf("b = %#x", p.Symbols["b"])
	}
	if got := binary.LittleEndian.Uint64(p.Data[8:]); got != 0x1122334455667788 {
		t.Errorf("dword = %#x", got)
	}
	if p.Data[24] != 'h' || p.Data[25] != 'i' || p.Data[26] != 0 {
		t.Errorf("asciz = %v", p.Data[24:27])
	}
	wantLen := 8 + 8 + 8 + 3 + 4
	if len(p.Data) != wantLen {
		t.Errorf("data len = %d, want %d", len(p.Data), wantLen)
	}
}

const equSrc = `
	.equ N, 64
	.equ DOUBLE_N, N+N
		li a0, N
		li a1, DOUBLE_N
		addi a2, zero, N-60
	`

func TestEquConstants(t *testing.T) {
	p, err := Assemble(equSrc)
	if err != nil {
		t.Fatal(err)
	}
	if in := decodeWord(t, p, 0); in.Imm != 64 {
		t.Errorf("li N = %+v", in)
	}
	if in := decodeWord(t, p, 1); in.Imm != 128 {
		t.Errorf("li DOUBLE_N = %+v", in)
	}
	if in := decodeWord(t, p, 2); in.Imm != 4 {
		t.Errorf("addi N-60 = %+v", in)
	}
}

const vectorSrc = `
		vsetvli t0, a0, e64, m1, ta, ma
		vle64.v v1, (a1)
		vlse64.v v2, (a2), t1
		vluxei64.v v3, (a3), v2
		vadd.vv v4, v1, v2
		vadd.vi v5, v4, 3
		vfmacc.vf v6, fa0, v1
		vse64.v v4, (a4)
		vadd.vv v7, v1, v2, v0.t
		vmv.x.s a5, v4
		vredsum.vs v8, v1, v2
	`

func TestVectorSyntax(t *testing.T) {
	p, err := Assemble(vectorSrc)
	if err != nil {
		t.Fatal(err)
	}
	in := decodeWord(t, p, 0)
	if in.Op != riscv.OpVSETVLI {
		t.Errorf("vsetvli = %+v", in)
	}
	vt, ok := riscv.DecodeVType(uint64(in.Imm))
	if !ok || vt.SEW != 64 || vt.LMUL != 1 || !vt.TA || !vt.MA {
		t.Errorf("vtype = %+v", vt)
	}
	in = decodeWord(t, p, 1)
	if in.Op != riscv.OpVLE64 || in.Rd != 1 || in.Rs1 != 11 || !in.VM {
		t.Errorf("vle64 = %+v", in)
	}
	in = decodeWord(t, p, 3)
	if in.Op != riscv.OpVLUXEI64 || in.Rs2 != 2 {
		t.Errorf("vluxei64 = %+v", in)
	}
	in = decodeWord(t, p, 4)
	// vadd.vv vd, vs2, vs1: v4 = v1 + v2 → Rs2=1, Rs1=2
	if in.Op != riscv.OpVADDVV || in.Rd != 4 || in.Rs2 != 1 || in.Rs1 != 2 {
		t.Errorf("vadd.vv = %+v", in)
	}
	in = decodeWord(t, p, 8)
	if in.VM {
		t.Errorf("masked vadd should have VM=false: %+v", in)
	}
	in = decodeWord(t, p, 9)
	if in.Op != riscv.OpVMVXS || in.Rd != 15 || in.Rs2 != 4 {
		t.Errorf("vmv.x.s = %+v", in)
	}
}

const csrSrc = `
		csrr a0, mhartid
		csrrwi zero, 0x340, 5
		rdcycle t0
	`

func TestCSRSyntax(t *testing.T) {
	p, err := Assemble(csrSrc)
	if err != nil {
		t.Fatal(err)
	}
	in := decodeWord(t, p, 0)
	if in.Op != riscv.OpCSRRS || uint16(in.Imm) != riscv.CSRMHartID {
		t.Errorf("csrr = %+v", in)
	}
	in = decodeWord(t, p, 1)
	if in.Op != riscv.OpCSRRWI || in.Rs1 != 5 || in.Imm != 0x340 {
		t.Errorf("csrrwi = %+v", in)
	}
}

const amoSrc = `
		amoadd.d a0, a1, (a2)
		lr.d t0, (a0)
		sc.d t1, t2, (a0)
	`

func TestAMOSyntax(t *testing.T) {
	p, err := Assemble(amoSrc)
	if err != nil {
		t.Fatal(err)
	}
	in := decodeWord(t, p, 0)
	if in.Op != riscv.OpAMOADDD || in.Rd != 10 || in.Rs2 != 11 || in.Rs1 != 12 {
		t.Errorf("amoadd = %+v", in)
	}
	in = decodeWord(t, p, 1)
	if in.Op != riscv.OpLRD || in.Rd != 5 || in.Rs1 != 10 {
		t.Errorf("lr.d = %+v", in)
	}
}

var errorSources = []string{
	"bogus a0, a1",
	"addi a0, a1",       // missing operand
	"addi a0, a1, 5000", // imm out of range
	"ld a0, a1",         // not a mem operand
	"li a0, undefined_symbol",
	".align x",
	"dup:\ndup:",
	".word 1)",
}

func TestErrors(t *testing.T) {
	for _, src := range errorSources {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestBranchOutOfRange(t *testing.T) {
	src := "beq a0, a1, far\n"
	for i := 0; i < 2000; i++ {
		src += "nop\n"
	}
	src += "far: ret\n"
	if _, err := Assemble(src); err == nil {
		t.Error("4 KiB-out-of-range branch should fail")
	}
}

const entrySrc = `
		nop
	_start:
		ret
	`

func TestEntrySymbol(t *testing.T) {
	p, err := Assemble(entrySrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != p.TextBase+4 {
		t.Errorf("entry = %#x, want %#x", p.Entry, p.TextBase+4)
	}
}

func TestMaskSuffixOnLoad(t *testing.T) {
	p, err := Assemble("vle64.v v1, (a0), v0.t")
	if err != nil {
		t.Fatal(err)
	}
	if in := decodeWord(t, p, 0); in.VM {
		t.Errorf("want VM=false, got %+v", in)
	}
}

var fpSources = []string{
	"fadd.d fa0, fa1, fa2",
	"fmadd.d ft0, ft1, ft2, ft3",
	"fcvt.d.l fa0, a0",
	"fcvt.w.d a0, fa0",
	"fsqrt.d fa0, fa1",
	"feq.d a0, fa0, fa1",
	"fmv.x.d a0, fa0",
}

func TestFPRoundTripThroughDisasm(t *testing.T) {
	for _, src := range fpSources {
		p, err := Assemble(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		in := decodeWord(t, p, 0)
		if got := riscv.Disasm(in); got != src {
			t.Errorf("disasm(%s) = %s", src, got)
		}
	}
}

// at is the address off bytes past the first statement's.
func at(off int64) string { return fmt.Sprintf("%#x", int64(DefaultOptions().TextBase)+off) }

var rangeCases = []struct {
	src string
	ok  bool
}{
	{"jalr ra, sp, 5000", false},
	{"jalr ra, 5000(sp)", false},
	{"jalr ra, 2047(sp)", true},
	{"vsll.vi v1, v2, 31", true},
	{"vsll.vi v1, v2, -1", false},
	{"vslidedown.vi v1, v2, 32", false},
	{"vadd.vi v1, v2, 16", false},
	// The uimm5 of csrr*i and vsetivli lives in the uint8 Rs1 field,
	// where 256 and 260 would wrap to 0 and 4.
	{"csrrwi a0, mstatus, 31", true},
	{"csrrwi a0, mstatus, 32", false},
	{"csrrwi a0, mstatus, 256", false},
	{"csrrsi a0, mstatus, -256", false},
	{"vsetivli t0, 260, e32, m1", false},
	{"beq a0, a1, " + at(4094), true},
	{"beq a0, a1, " + at(4096), false},
	{"beq a0, a1, " + at(-4098), false},
	{"beq a0, a1, " + at(3), false},
	{"jal ra, " + at(1<<20-2), true},
	{"jal ra, " + at(1<<20), false},
	{"jal " + at(5), false},
}

// TestOutOfRangeOperandsRefused names the edges that used to slip through:
// jalr's offset was never range-checked ("jalr ra, sp, 5000" assembled to
// "jalr ra, sp, 904"), and the vector shifts and slides read their unsigned
// immediate as signed.
func TestOutOfRangeOperandsRefused(t *testing.T) {
	for _, c := range rangeCases {
		if _, err := Assemble(c.src); (err == nil) != c.ok {
			t.Errorf("Assemble(%q): err = %v, want ok = %v", c.src, err, c.ok)
		}
	}
}
