package asm

// Cross-checks the assembler against the disassembler: for random
// instances of (almost) every opcode, riscv.Disasm output must assemble
// back to the identical machine word. Branches and jal are excluded
// because their textual operands are symbolic targets, not the raw
// offsets the disassembler prints.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/coyote-sim/coyote/internal/riscv"
)

// assembleOne assembles a single statement and returns its first word.
func assembleOne(t *testing.T, src string) (uint32, error) {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		return 0, err
	}
	if len(p.Text) < 4 {
		t.Fatalf("no code for %q", src)
	}
	return binary.LittleEndian.Uint32(p.Text), nil
}

// skipRoundTrip: ops whose text operand is an address, not the offset the
// disassembler prints.
func skipRoundTrip(op riscv.Op) bool {
	return op.Classify()&riscv.ClassBranch != 0 && op != riscv.OpJALR
}

func TestDisasmAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, op := range riscv.Ops() {
		if skipRoundTrip(op) {
			continue
		}
		for trial := 0; trial < 8; trial++ {
			in := riscv.Legal(rng, op)
			want, err := riscv.Encode(in)
			if err != nil {
				t.Fatalf("%v: encode: %v", op, err)
			}
			text := riscv.Disasm(in)
			got, err := assembleOne(t, text)
			if err != nil {
				t.Fatalf("%v: assembling %q: %v", op, text, err)
			}
			if got != want {
				t.Fatalf("%v: %q assembled to %#08x, want %#08x", op, text, got, want)
			}
		}
	}
}

// wrapped returns text once for every numeric operand in it (an offset in
// offset(base) included) and every d, with that operand moved by d and
// printed the way Disasm printed it.
func wrapped(text string, ds []int64) []string {
	name, rest, _ := strings.Cut(text, " ")
	toks := strings.Split(rest, ", ")
	var out []string
	for i, tok := range toks {
		num, base := tok, ""
		if p := strings.Index(tok, "("); p >= 0 {
			num, base = tok[:p], tok[p:]
		}
		v, err := strconv.ParseInt(num, 0, 64)
		if err != nil {
			continue
		}
		format := "%d%s"
		if strings.HasPrefix(num, "0x") {
			format = "%#x%s"
		}
		for _, d := range ds {
			moved := append([]string(nil), toks...)
			moved[i] = fmt.Sprintf(format, v+d, base)
			out = append(out, name+" "+strings.Join(moved, ", "))
		}
	}
	return out
}

// TestAssembleTruncatesNothing: the text path has no range logic of its
// own, so whatever it accepts must disassemble back to the text it was
// given. Each probe is a legal instance with one field pushed to or past
// the edge of some immediate or register range, or with a number in its
// text moved by a multiple of 256 — what a narrower Instr field would wrap
// back into range. Before riscv.Encode became the one checker "jalr ra, sp,
// 5000" assembled to "jalr ra, sp, 904".
func TestAssembleTruncatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var probes []int64
	for _, k := range []uint{4, 5, 6, 10, 11, 12, 20} {
		probes = append(probes, -1<<k-1, -1<<k, 1<<k-1, 1<<k)
	}
	wraps := []int64{-1 << 32, -1 << 16, -1 << 8, 1 << 8, 1 << 16, 1 << 32}
	refused := 0
	for _, op := range riscv.Ops() {
		if skipRoundTrip(op) {
			continue
		}
		var cases []string
		for _, v := range probes {
			in := riscv.Legal(rng, op)
			in.Imm = v
			cases = append(cases, riscv.Disasm(in))
		}
		for _, set := range []func(*riscv.Instr){
			func(in *riscv.Instr) { in.Rd = 32 }, func(in *riscv.Instr) { in.Rs1 = 32 },
			func(in *riscv.Instr) { in.Rs2 = 32 }, func(in *riscv.Instr) { in.Rs3 = 32 },
		} {
			in := riscv.Legal(rng, op)
			set(&in)
			cases = append(cases, riscv.Disasm(in))
		}
		cases = append(cases, wrapped(riscv.Disasm(riscv.Legal(rng, op)), wraps)...)
		for _, text := range cases {
			w, err := assembleOne(t, text)
			if err != nil {
				refused++ // refusing is never wrong here: legal text is TestDisasmAssembleRoundTrip's
				continue
			}
			back, err := riscv.Decode(w)
			if err != nil {
				t.Errorf("%q assembled to %#08x, which does not decode", text, w)
			} else if got := riscv.Disasm(back); got != text {
				t.Errorf("%q assembled to %#08x = %q", text, w, got)
			}
		}
	}
	if refused < 500 {
		t.Errorf("only %d probes refused; the probe set no longer reaches the range edges", refused)
	}
}
