package asm

// Decode-level checks for every pseudo-instruction expansion.

import (
	"testing"

	"github.com/coyote-sim/coyote/internal/riscv"
)

type pseudoCase struct {
	src  string
	want riscv.Instr
}

var pseudoCases = []pseudoCase{
	{"nop", riscv.Instr{Op: riscv.OpADDI, VM: true}},
	{"mv a0, a1", riscv.Instr{Op: riscv.OpADDI, Rd: 10, Rs1: 11, VM: true}},
	{"not a0, a1", riscv.Instr{Op: riscv.OpXORI, Rd: 10, Rs1: 11, Imm: -1, VM: true}},
	{"neg a0, a1", riscv.Instr{Op: riscv.OpSUB, Rd: 10, Rs2: 11, VM: true}},
	{"negw a0, a1", riscv.Instr{Op: riscv.OpSUBW, Rd: 10, Rs2: 11, VM: true}},
	{"sext.w a0, a1", riscv.Instr{Op: riscv.OpADDIW, Rd: 10, Rs1: 11, VM: true}},
	{"seqz a0, a1", riscv.Instr{Op: riscv.OpSLTIU, Rd: 10, Rs1: 11, Imm: 1, VM: true}},
	{"snez a0, a1", riscv.Instr{Op: riscv.OpSLTU, Rd: 10, Rs2: 11, VM: true}},
	{"sltz a0, a1", riscv.Instr{Op: riscv.OpSLT, Rd: 10, Rs1: 11, VM: true}},
	{"sgtz a0, a1", riscv.Instr{Op: riscv.OpSLT, Rd: 10, Rs2: 11, VM: true}},
	{"l: beqz a0, l", riscv.Instr{Op: riscv.OpBEQ, Rs1: 10, VM: true}},
	{"l: bnez a0, l", riscv.Instr{Op: riscv.OpBNE, Rs1: 10, VM: true}},
	{"l: blez a0, l", riscv.Instr{Op: riscv.OpBGE, Rs2: 10, VM: true}},
	{"l: bgez a0, l", riscv.Instr{Op: riscv.OpBGE, Rs1: 10, VM: true}},
	{"l: bltz a0, l", riscv.Instr{Op: riscv.OpBLT, Rs1: 10, VM: true}},
	{"l: bgtz a0, l", riscv.Instr{Op: riscv.OpBLT, Rs2: 10, VM: true}},
	{"l: bgt a0, a1, l", riscv.Instr{Op: riscv.OpBLT, Rs1: 11, Rs2: 10, VM: true}},
	{"l: ble a0, a1, l", riscv.Instr{Op: riscv.OpBGE, Rs1: 11, Rs2: 10, VM: true}},
	{"l: bgtu a0, a1, l", riscv.Instr{Op: riscv.OpBLTU, Rs1: 11, Rs2: 10, VM: true}},
	{"l: bleu a0, a1, l", riscv.Instr{Op: riscv.OpBGEU, Rs1: 11, Rs2: 10, VM: true}},
	{"l: j l", riscv.Instr{Op: riscv.OpJAL, VM: true}},
	{"l: call l", riscv.Instr{Op: riscv.OpJAL, Rd: 1, VM: true}},
	{"jr a0", riscv.Instr{Op: riscv.OpJALR, Rs1: 10, VM: true}},
	{"ret", riscv.Instr{Op: riscv.OpJALR, Rs1: 1, VM: true}},
	{"csrr a0, mhartid", riscv.Instr{Op: riscv.OpCSRRS, Rd: 10, Imm: riscv.CSRMHartID, VM: true}},
	{"csrw mhartid, a0", riscv.Instr{Op: riscv.OpCSRRW, Rs1: 10, Imm: riscv.CSRMHartID, VM: true}},
	{"rdcycle a0", riscv.Instr{Op: riscv.OpCSRRS, Rd: 10, Imm: riscv.CSRCycle, VM: true}},
	{"rdinstret a0", riscv.Instr{Op: riscv.OpCSRRS, Rd: 10, Imm: riscv.CSRInstret, VM: true}},
	{"fmv.s fa0, fa1", riscv.Instr{Op: riscv.OpFSGNJS, Rd: 10, Rs1: 11, Rs2: 11, VM: true}},
	{"fmv.d fa0, fa1", riscv.Instr{Op: riscv.OpFSGNJD, Rd: 10, Rs1: 11, Rs2: 11, VM: true}},
	{"fneg.s fa0, fa1", riscv.Instr{Op: riscv.OpFSGNJNS, Rd: 10, Rs1: 11, Rs2: 11, VM: true}},
	{"fneg.d fa0, fa1", riscv.Instr{Op: riscv.OpFSGNJND, Rd: 10, Rs1: 11, Rs2: 11, VM: true}},
	{"fabs.s fa0, fa1", riscv.Instr{Op: riscv.OpFSGNJXS, Rd: 10, Rs1: 11, Rs2: 11, VM: true}},
	{"fabs.d fa0, fa1", riscv.Instr{Op: riscv.OpFSGNJXD, Rd: 10, Rs1: 11, Rs2: 11, VM: true}},
}

func TestPseudoExpansions(t *testing.T) {
	for _, c := range pseudoCases {
		p, err := Assemble(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		got := decodeWord(t, p, 0)
		if got != c.want {
			t.Errorf("%q expanded to %+v, want %+v", c.src, got, c.want)
		}
	}
}

var pseudoCountErrors = []string{
	"mv a0", "not a0", "neg", "seqz a0, a1, a2", "beqz a0",
	"j", "jr", "call", "csrr a0", "li a0", "la a0",
	"fmv.d fa0", "bgt a0, a1",
}

func TestPseudoOperandCountErrors(t *testing.T) {
	for _, src := range pseudoCountErrors {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

func TestLaOutOfRange(t *testing.T) {
	// A data base impossibly far from text exceeds auipc's ±2 GiB reach.
	_, err := AssembleWith("la a0, sym\n.data\nsym: .dword 0",
		Options{TextBase: 0x1000_0000, DataBase: 0x2_0000_0000_0000})
	if err == nil {
		t.Error("out-of-range la accepted")
	}
}

func TestProgramHelpers(t *testing.T) {
	p, err := Assemble("nop\n.data\n.dword 1, 2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 4+16 {
		t.Errorf("Size = %d", p.Size())
	}
}
