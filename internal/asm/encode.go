package asm

import "github.com/coyote-sim/coyote/internal/riscv"

// encodeInstruction translates one assembly statement (mnemonic +
// operands) into machine words. pc is the statement's address (needed for
// branches, jumps and la); syms holds every label and .equ value. The
// operand syntax of real instructions is riscv.Parse's, their ranges are
// riscv.Encode's; only the pseudo-instructions are this package's.
func encodeInstruction(name string, ops []string, pc uint64, syms map[string]uint64) ([]uint32, error) {
	seq, err := expandPseudo(name, ops, pc, syms)
	if err != nil {
		return nil, err
	}
	if seq == nil {
		if template, ok := rewrites[rewriteKey{name, len(ops)}]; ok {
			name, ops = applyRewrite(template, ops)
		}
		in, err := riscv.Parse(name, ops, pc, func(s string) (int64, error) { return evalExpr(s, syms) })
		if err != nil {
			return nil, err
		}
		seq = []riscv.Instr{in}
	}
	words := make([]uint32, len(seq))
	for i, in := range seq {
		if words[i], err = riscv.Encode(in); err != nil {
			return nil, err
		}
	}
	return words, nil
}
