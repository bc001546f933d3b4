package riscv

import "fmt"

// Decode translates a 32-bit instruction word into an Instr.
// Unrecognised words return an error (the CPU raises an illegal
// instruction in that case).
func Decode(raw uint32) (Instr, error) {
	bucket := decodeBuckets[raw&0x7f]
	for i := range bucket {
		r := &bucket[i]
		if raw&r.mask != r.match {
			continue
		}
		in := Instr{Op: r.op, VM: true}
		for _, o := range r.ops {
			var v int64
			for _, s := range o.segs() {
				v |= int64(raw>>s.to) & (1<<s.width - 1) << s.from
			}
			if k := kinds[o.kind]; v > k.hi {
				v += 2 * k.lo // two's complement: the codes above hi are a signed kind's negatives
			}
			in = in.with(o.field, v)
		}
		return in, nil
	}
	return Instr{}, fmt.Errorf("riscv: cannot decode %#08x", raw) //coyote:alloc-ok decode errors fault the hart and end the run
}

// Encode translates an Instr into its 32-bit machine word. It is the one
// place an operand's range is checked: a register number above 31, an
// immediate outside its kind's range or an odd branch or jump offset is an
// error, never a truncation. Fields the op has no operand for are ignored.
func Encode(in Instr) (uint32, error) {
	r := rowOf(in.Op)
	if r == nil {
		return 0, fmt.Errorf("riscv: no encoding for op %v", in.Op)
	}
	raw := r.match | r.canon
	for _, o := range r.ops {
		v := in.get(o.field)
		if err := kinds[o.kind].check(v); err != nil {
			return 0, fmt.Errorf("riscv: %v: %w", in.Op, err)
		}
		for _, s := range o.segs() {
			raw |= uint32(v>>s.from) & (1<<s.width - 1) << s.to
		}
	}
	if raw&r.mask != r.match {
		return 0, fmt.Errorf("riscv: %v: an operand overwrites the opcode's fixed bits", in.Op)
	}
	return raw, nil
}

// check is the range rule Encode applies to an operand of kind k.
func (k kindInfo) check(v int64) error {
	if v < k.lo || v > k.hi {
		return fmt.Errorf("%s %d out of range [%d, %d]", k.name, v, k.lo, k.hi)
	}
	if k.step > 1 && v%k.step != 0 {
		return fmt.Errorf("%s %d is not a multiple of %d", k.name, v, k.step)
	}
	return nil
}

// MustEncode is Encode but panics on error; for use in tests and kernel
// builders where the instruction is statically known to be valid.
func MustEncode(in Instr) uint32 {
	w, err := Encode(in)
	if err != nil {
		panic(err)
	}
	return w
}
