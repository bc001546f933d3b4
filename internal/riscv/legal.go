package riscv

import "math/rand"

// Ops lists every opcode the table has a row for, in Op order.
func Ops() []Op {
	var ops []Op
	for op := Op(1); op < opMax; op++ {
		if encodeRows[op] != nil {
			ops = append(ops, op)
		}
	}
	return ops
}

// Legal draws a random instance of op that Encode accepts, Decode returns
// unchanged and Disasm prints in a form Parse reads back: every operand
// uniform over its kind's range, fields op has no operand for left zero.
// It is what the ISA's property tests and fuzzers draw programs from.
func Legal(rng *rand.Rand, op Op) Instr {
	in := Instr{Op: op, VM: true}
	r := rowOf(op)
	if r == nil {
		return in
	}
	for _, o := range r.ops {
		k := kinds[o.kind]
		v := k.lo + rng.Int63n(k.hi-k.lo+1)
		if k.step > 1 {
			v -= v % k.step
		}
		if o.kind == kVType11 || o.kind == kVType10 {
			// A vtype the model implements and Disasm prints in full:
			// integer LMUL, SEW 8…64, tail- and mask-undisturbed.
			v = v&3 | v>>3&3<<3
		}
		if o.role&silent == 0 { // a silent operand keeps what Parse would leave it
			in = in.with(o.field, v)
		}
	}
	return in
}
