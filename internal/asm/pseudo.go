package asm

import (
	"fmt"
	"strings"

	"github.com/coyote-sim/coyote/internal/riscv"
)

// rewriteKey selects a rewrite by mnemonic and operand count, so a real
// mnemonic can have short forms (jal label, jalr rs1) beside its full one.
type rewriteKey struct {
	name string
	n    int
}

// rewrites are the pseudo-instructions that are another instruction with
// its operands rearranged: the real mnemonic and its operands, where "$n"
// stands for the pseudo's operand n.
var rewrites = map[rewriteKey]string{
	{"nop", 0}:    "addi zero, zero, 0",
	{"mv", 2}:     "addi $0, $1, 0",
	{"not", 2}:    "xori $0, $1, -1",
	{"neg", 2}:    "sub $0, zero, $1",
	{"negw", 2}:   "subw $0, zero, $1",
	{"sext.w", 2}: "addiw $0, $1, 0",
	{"seqz", 2}:   "sltiu $0, $1, 1",
	{"snez", 2}:   "sltu $0, zero, $1",
	{"sltz", 2}:   "slt $0, $1, zero",
	{"sgtz", 2}:   "slt $0, zero, $1",

	{"beqz", 2}: "beq $0, zero, $1",
	{"bnez", 2}: "bne $0, zero, $1",
	{"blez", 2}: "bge zero, $0, $1",
	{"bgez", 2}: "bge $0, zero, $1",
	{"bltz", 2}: "blt $0, zero, $1",
	{"bgtz", 2}: "blt zero, $0, $1",
	{"bgt", 3}:  "blt $1, $0, $2",
	{"ble", 3}:  "bge $1, $0, $2",
	{"bgtu", 3}: "bltu $1, $0, $2",
	{"bleu", 3}: "bgeu $1, $0, $2",

	{"j", 1}:    "jal zero, $0",
	{"jal", 1}:  "jal ra, $0",
	{"call", 1}: "jal ra, $0",
	{"jr", 1}:   "jalr zero, $0, 0",
	{"jalr", 1}: "jalr zero, $0, 0",
	{"ret", 0}:  "jalr zero, ra, 0",

	// The model's fence orders everything; its predecessor and successor
	// sets are accepted and ignored.
	{"fence", 1}: "fence",
	{"fence", 2}: "fence",

	{"csrr", 2}:      "csrrs $0, $1, zero",
	{"csrw", 2}:      "csrrw zero, $0, $1",
	{"rdcycle", 1}:   "csrrs $0, cycle, zero",
	{"rdinstret", 1}: "csrrs $0, instret, zero",

	{"fmv.s", 2}:  "fsgnj.s $0, $1, $1",
	{"fmv.d", 2}:  "fsgnj.d $0, $1, $1",
	{"fneg.s", 2}: "fsgnjn.s $0, $1, $1",
	{"fneg.d", 2}: "fsgnjn.d $0, $1, $1",
	{"fabs.s", 2}: "fsgnjx.s $0, $1, $1",
	{"fabs.d", 2}: "fsgnjx.d $0, $1, $1",
}

// applyRewrite substitutes the pseudo's operands into template.
func applyRewrite(template string, ops []string) (string, []string) {
	name, rest, _ := strings.Cut(template, " ")
	if rest == "" {
		return name, nil
	}
	out := strings.Split(rest, ", ")
	for i, o := range out {
		if o[0] == '$' {
			out[i] = ops[o[1]-'0']
		}
	}
	return name, out
}

// expandLI returns the canonical instruction sequence materialising the
// 64-bit constant v into rd (the same algorithm GNU as uses: build the
// upper bits recursively, shift, then add the low 12 bits).
func expandLI(rd uint8, v int64) []riscv.Instr {
	if v >= -2048 && v < 2048 {
		return []riscv.Instr{{Op: riscv.OpADDI, Rd: rd, Rs1: 0, Imm: v, VM: true}}
	}
	if v >= -(1<<31) && v < 1<<31 {
		lo := v << 52 >> 52 // sign-extended low 12 bits
		hi := uint32(v-lo) >> 12 & 0xfffff
		seq := []riscv.Instr{{Op: riscv.OpLUI, Rd: rd, Imm: int64(hi), VM: true}}
		if lo != 0 {
			seq = append(seq, riscv.Instr{Op: riscv.OpADDIW, Rd: rd, Rs1: rd, Imm: lo, VM: true})
		}
		return seq
	}
	lo := v << 52 >> 52
	upper := (v - lo) >> 12
	seq := expandLI(rd, upper)
	seq = append(seq, riscv.Instr{Op: riscv.OpSLLI, Rd: rd, Rs1: rd, Imm: 12, VM: true})
	if lo != 0 {
		seq = append(seq, riscv.Instr{Op: riscv.OpADDI, Rd: rd, Rs1: rd, Imm: lo, VM: true})
	}
	return seq
}

// expandPseudo expands the pseudo-instructions that compute their operands
// rather than rearrange them: li (a constant of any width) and la
// (pc-relative address). It returns nil for every other mnemonic.
func expandPseudo(name string, ops []string, pc uint64, syms map[string]uint64) ([]riscv.Instr, error) {
	if name != "li" && name != "la" {
		return nil, nil
	}
	if len(ops) != 2 {
		return nil, fmt.Errorf("%s: want 2 operands, got %d", name, len(ops))
	}
	rd, ok := riscv.XRegByName(strings.TrimSpace(ops[0]))
	if !ok {
		return nil, fmt.Errorf("bad integer register %q", ops[0])
	}
	v, err := evalExpr(ops[1], syms)
	switch {
	case err != nil && name == "li": // pass 1 sizes li from the .equ constants seen so far
		return nil, fmt.Errorf("li: immediate must be a constant known at its point of use: %w", err)
	case err != nil:
		return nil, fmt.Errorf("la: %w", err)
	case name == "li":
		return expandLI(rd, v), nil
	}
	// auipc rd, %pcrel_hi(sym); addi rd, rd, %pcrel_lo(sym)
	delta := v - int64(pc)
	lo := delta << 52 >> 52
	hi := (delta - lo) >> 12
	if hi < -(1<<19) || hi >= 1<<19 {
		return nil, fmt.Errorf("la: target %#x out of ±2GiB range from pc %#x", v, pc)
	}
	return []riscv.Instr{
		{Op: riscv.OpAUIPC, Rd: rd, Imm: hi & 0xfffff, VM: true},
		{Op: riscv.OpADDI, Rd: rd, Rs1: rd, Imm: lo, VM: true},
	}, nil
}

// instrWords reports how many 32-bit words a statement will occupy; needed
// by pass 1 for layout before labels are resolved. equs holds .equ
// constants defined so far (li immediates must be constant expressions).
func instrWords(name string, ops []string, equs map[string]uint64) (int, error) {
	switch name {
	case "li":
		seq, err := expandPseudo(name, ops, 0, equs)
		return len(seq), err
	case "la":
		return 2, nil
	default:
		return 1, nil
	}
}
