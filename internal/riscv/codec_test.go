package riscv

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

var allOps = Ops

func TestEveryOpHasEncoding(t *testing.T) {
	for op := Op(1); op < opMax; op++ {
		if encodeRows[op] == nil {
			t.Errorf("op %v has no encoding row", op)
		}
		if op.String() == "invalid" {
			t.Errorf("op %d has no name", op)
		}
	}
}

func TestEncodingMaskCoversMatch(t *testing.T) {
	for _, r := range encTable {
		if r.match&^r.mask != 0 {
			t.Errorf("%v: match bits %#x outside mask %#x", r.op, r.match, r.mask)
		}
		if r.mask&0x7f != 0x7f {
			t.Errorf("%v: major opcode not fully fixed", r.op)
		}
	}
}

// TestEncodeDecodeRoundTrip is the central property test: for every opcode,
// encode(instr) must decode back to the identical Instr.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, op := range allOps() {
		for trial := 0; trial < 64; trial++ {
			want := Legal(rng, op)
			raw, err := Encode(want)
			if err != nil {
				t.Fatalf("%v: encode: %v", op, err)
			}
			got, err := Decode(raw)
			if err != nil {
				t.Fatalf("%v: decode(%#08x): %v", op, raw, err)
			}
			if got != want {
				t.Fatalf("%v: round trip mismatch\nword %#08x\nwant %+v\ngot  %+v",
					op, raw, want, got)
			}
		}
	}
}

// TestDecodeUnambiguous checks that no two encoding rows can claim the same
// word: for every encoded random instruction exactly one row matches.
func TestDecodeUnambiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, op := range allOps() {
		for trial := 0; trial < 16; trial++ {
			raw := MustEncode(Legal(rng, op))
			matches := 0
			for _, r := range encTable {
				if raw&r.mask == r.match {
					matches++
				}
			}
			if matches != 1 {
				t.Fatalf("%v: word %#08x matched %d rows", op, raw, matches)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, w := range []uint32{0, 0xffffffff, 0x00000002, 0xdeadbeef} {
		if in, err := Decode(w); err == nil {
			// A lucky random word may decode; only all-zero/all-one must fail.
			if w == 0 || w == 0xffffffff {
				t.Errorf("Decode(%#08x) = %v, want error", w, in)
			}
		}
	}
}

func TestKnownEncodings(t *testing.T) {
	// Golden words cross-checked against the RISC-V spec examples /
	// GNU assembler output.
	cases := []struct {
		in   Instr
		want uint32
	}{
		// addi a0, a1, 42
		{Instr{Op: OpADDI, Rd: 10, Rs1: 11, Imm: 42, VM: true}, 0x02a58513},
		// add a0, a1, a2
		{Instr{Op: OpADD, Rd: 10, Rs1: 11, Rs2: 12, VM: true}, 0x00c58533},
		// lui t0, 0x12345
		{Instr{Op: OpLUI, Rd: 5, Imm: 0x12345, VM: true}, 0x123452b7},
		// ld a0, 16(sp)
		{Instr{Op: OpLD, Rd: 10, Rs1: 2, Imm: 16, VM: true}, 0x01013503},
		// sd a0, 8(sp)
		{Instr{Op: OpSD, Rs1: 2, Rs2: 10, Imm: 8, VM: true}, 0x00a13423},
		// beq a0, a1, +8
		{Instr{Op: OpBEQ, Rs1: 10, Rs2: 11, Imm: 8, VM: true}, 0x00b50463},
		// jal ra, +16
		{Instr{Op: OpJAL, Rd: 1, Imm: 16, VM: true}, 0x010000ef},
		// ecall
		{Instr{Op: OpECALL, VM: true}, 0x00000073},
		// mul a0, a1, a2
		{Instr{Op: OpMUL, Rd: 10, Rs1: 11, Rs2: 12, VM: true}, 0x02c58533},
		// csrrs a0, mhartid, zero
		{Instr{Op: OpCSRRS, Rd: 10, Rs1: 0, Imm: CSRMHartID, VM: true}, 0xf1402573},
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Fatalf("%v: %v", c.in.Op, err)
		}
		if got != c.want {
			t.Errorf("Encode(%v %s) = %#08x, want %#08x",
				c.in.Op, Disasm(c.in), got, c.want)
		}
	}
}

func TestVTypeRoundTrip(t *testing.T) {
	f := func(sewSel, lmulSel uint8, ta, ma bool) bool {
		vt := VType{
			SEW:  8 << (sewSel % 4),
			LMUL: 1 << (lmulSel % 4),
			TA:   ta,
			MA:   ma,
		}
		enc, err := EncodeVType(vt)
		if err != nil {
			return false
		}
		dec, ok := DecodeVType(uint64(enc))
		return ok && dec == vt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeVTypeIllegal(t *testing.T) {
	if _, ok := DecodeVType(1 << 63); ok {
		t.Error("vill bit should make DecodeVType fail")
	}
	if _, ok := DecodeVType(0x7); ok {
		t.Error("fractional LMUL should be rejected")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{OpLD, ClassLoad},
		{OpSD, ClassStore},
		{OpBEQ, ClassBranch},
		{OpJAL, ClassBranch},
		{OpADD, ClassALU},
		{OpFADDD, ClassFloat},
		{OpVLE64, ClassVector | ClassVectorMem | ClassLoad},
		{OpVSE64, ClassVector | ClassVectorMem | ClassStore},
		{OpVLUXEI64, ClassVector | ClassVectorMem | ClassLoad},
		{OpVSUXEI64, ClassVector | ClassVectorMem | ClassStore},
		{OpVFMACCVV, ClassVector},
		{OpAMOADDD, ClassAtomic | ClassLoad | ClassStore},
		{OpCSRRS, ClassCSR | ClassSystem},
	}
	for _, c := range cases {
		if got := c.op.Classify(); got != c.want {
			t.Errorf("%v.Classify() = %b, want %b", c.op, got, c.want)
		}
	}
}

func TestDisasmSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, op := range allOps() {
		in := Legal(rng, op)
		s := Disasm(in)
		if s == "" || s == "invalid" {
			t.Errorf("Disasm(%v) = %q", op, s)
		}
	}
}

// TestDecodeEncodeIdempotent: for arbitrary words that decode, re-encoding
// the decoded form and decoding again must yield the same instruction.
// (encode∘decode is not the identity on raw words because don't-care bits
// — FP rounding modes, AMO aq/rl — are canonicalised.)
func TestDecodeEncodeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	decoded := 0
	for i := 0; i < 200000; i++ {
		w := rng.Uint32()
		in, err := Decode(w)
		if err != nil {
			continue
		}
		decoded++
		w2, err := Encode(in)
		if err != nil {
			t.Fatalf("%v (from %#08x): %v", in.Op, w, err)
		}
		in2, err := Decode(w2)
		if err != nil {
			t.Fatalf("re-decode %#08x (canonical of %#08x): %v", w2, w, err)
		}
		if in2 != in {
			t.Fatalf("not idempotent: %#08x → %+v → %#08x → %+v", w, in, w2, in2)
		}
	}
	if decoded < 1000 {
		t.Fatalf("only %d random words decoded; suspicious", decoded)
	}
}

// TestEncodeRefusesOutOfRange walks the table: for every operand of every
// op the ends of its kind's range encode and decode back, and one past
// either end (register 32, an odd branch or jump offset) is an error —
// Encode never masks. Generated from the table so a new kind or row is
// covered the day it is added.
func TestEncodeRefusesOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var seen [numKinds]bool
	for _, r := range encTable {
		for _, o := range r.ops {
			if o.kind == kMask || o.role&silent != 0 {
				continue // VM is a bool; a silent operand is not the caller's to set
			}
			seen[o.kind] = true
			k := kinds[o.kind]
			with := func(v int64) Instr {
				in := Legal(rng, r.op)
				in = in.with(o.field, v)
				return in
			}
			for _, v := range []int64{k.lo, k.hi} {
				in := with(v)
				w, err := Encode(in)
				if err != nil {
					t.Errorf("%v: %s = %d: %v", r.op, k.name, v, err)
				} else if got, _ := Decode(w); got != in {
					t.Errorf("%v: %s = %d decoded back as %+v", r.op, k.name, v, got)
				}
			}
			bad := []int64{k.lo - 1, k.hi + 1}
			if k.step > 1 {
				bad = append(bad, k.lo+1, k.hi-1)
			}
			for _, v := range bad {
				in := with(v)
				if w, err := Encode(in); err == nil {
					t.Errorf("%v: %s = %d encoded to %#08x (%s), want an error", r.op, k.name, v, w, Disasm(in))
				}
			}
		}
	}
	for k := kind(0); k < numKinds; k++ {
		if !seen[k] && k != kMask {
			t.Errorf("no op uses operand kind %q", kinds[k].name)
		}
	}
	// The named case: this assembled to jalr ra, sp, 904.
	if w, err := Encode(Instr{Op: OpJALR, Rd: RegRA, Rs1: RegSP, Imm: 5000}); err == nil {
		t.Errorf("jalr ra, sp, 5000 encoded to %#08x", w)
	}
	// A value Encode never gets to see: Parse must not wrap it into the
	// uint8 field the uimm5 lives in (256 would be a legal 0).
	eval := func(s string) (int64, error) { return strconv.ParseInt(s, 0, 64) }
	for _, ops := range [][]string{{"a0", "mstatus", "256"}, {"a0", "mstatus", "-256"}, {"a0", "mstatus", "4294967296"}} {
		if in, err := Parse("csrrwi", ops, 0, eval); err == nil {
			t.Errorf("Parse(csrrwi %v) = %+v, want an error", ops, in)
		}
	}
}
