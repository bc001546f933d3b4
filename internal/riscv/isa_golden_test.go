package riscv

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

const isaGoldenPath = "testdata/isa.golden"

// isaGoldenDraw returns a random instance of op built only from the
// exported API: the op's all-zero-field word with random values in the bits
// Decode treats as free for it. base and free come from isaGoldenBits.
func isaGoldenDraw(rng *rand.Rand, op Op, base, free uint32) Instr {
	for {
		in, err := Decode(base ^ rng.Uint32()&free)
		if err == nil && in.Op == op {
			return in
		}
	}
}

// isaGoldenBits probes which bits of op's encoding are operand fields: the
// ones that can be flipped in the all-zero-field word without Decode
// answering a different op.
func isaGoldenBits(op Op) (base, free uint32) {
	base = MustEncode(Instr{Op: op, VM: true})
	for b := uint(0); b < 32; b++ {
		if in, err := Decode(base ^ 1<<b); err == nil && in.Op == op {
			free |= 1 << b
		}
	}
	switch op {
	case OpVSLLVI, OpVSRLVI, OpVSRAVI, OpVSLIDEDOWNVI:
		// Their 5-bit immediate was read as signed before it was read as
		// unsigned (RVV 1.0 §11.6, §16.3); 0…15 means the same either way.
		free &^= 1 << 19
	}
	return base, free
}

// TestISAGolden pins, for 16 random instances of every op, the canonical
// word, the disassembly and the register footprint at LMUL 1 and 4. One
// line per op so a diff names the op whose codec, printer or RegUsage row
// moved. Regenerate (only together with a deliberate ISA change) with:
//
//	COYOTE_UPDATE_GOLDEN=1 go test -run TestISAGolden ./internal/riscv
func TestISAGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var b strings.Builder
	for _, op := range allOps() {
		base, free := isaGoldenBits(op)
		h := sha256.New()
		for draw := 0; draw < 16; draw++ {
			in := isaGoldenDraw(rng, op, base, free)
			w, err := Encode(in)
			if err != nil {
				t.Fatalf("%v: Encode(%+v): %v", op, in, err)
			}
			fmt.Fprintf(h, "%08x|%s|%x|%x\n", w, Disasm(in), RegUsage(in, 1), RegUsage(in, 4))
		}
		fmt.Fprintf(&b, "%-16s %x\n", op, h.Sum(nil))
	}
	got := b.String()

	if os.Getenv("COYOTE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(isaGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", isaGoldenPath)
		return
	}
	want, err := os.ReadFile(isaGoldenPath)
	if err != nil {
		t.Fatalf("%v — regenerate with COYOTE_UPDATE_GOLDEN=1 go test -run TestISAGolden ./internal/riscv", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Errorf("line %d: got %q, want %q", i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("%s: encoding, disassembly or register footprint of the ops above changed", isaGoldenPath)
	}
}
