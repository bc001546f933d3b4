package cpu

import (
	"math/rand"
	"testing"

	"github.com/coyote-sim/coyote/internal/riscv"
)

// regSnapshot is the architectural register state RegUsage speaks about.
type regSnapshot struct {
	x, f [32]uint64
	v    []byte
	pc   uint64
}

const reguseScratch = 0x20000 // 8-aligned, inside the page primed below

// reguseCase is one instruction at textBase and the register state it is
// executed from, as often as wanted.
type reguseCase struct {
	h    *Hart
	in   riscv.Instr
	lmul uint
	x, f [32]uint64
	v    []byte
	now  uint64
}

// run executes the instruction once and returns the registers before and
// after, and whether it retired. perturb, when non-nil, edits the primed
// state before the step.
func (c *reguseCase) run(t *testing.T, perturb func(h *Hart)) (before, after regSnapshot, ok bool) {
	t.Helper()
	h := c.h
	h.X, h.F = c.x, c.f
	copy(h.V, c.v)
	h.PC, h.Halted, h.Fault = textBase, false, nil
	h.text = NewText(h.Mem, textBase, 1) // decode the one instruction under test
	vt, err := riscv.EncodeVType(riscv.VType{SEW: 64, LMUL: c.lmul})
	if err != nil {
		t.Fatal(err)
	}
	h.VType, _ = riscv.DecodeVType(uint64(vt))
	h.vtypeRaw = uint64(vt)
	h.VL = h.VLMax()
	if perturb != nil {
		perturb(h)
	}
	before = regSnapshot{x: h.X, f: h.F, v: append([]byte(nil), h.V...), pc: h.PC}
	for try := 0; try < 4; try++ {
		c.now += 1 << 20 // past any vector occupancy of the previous case
		res := h.Step(c.now)
		for _, ev := range h.DrainEvents() {
			if ev.Fetch {
				h.CompleteFetch()
			} else if ev.HasDest {
				h.CompleteFill(ev.Dest, ev.DestReg)
			}
		}
		switch res {
		case StepExecuted:
			return before, regSnapshot{x: h.X, f: h.F, v: append([]byte(nil), h.V...), pc: h.PC}, true
		case StepFault, StepHalted:
			return before, after, false
		}
	}
	t.Fatalf("%s did not retire in 4 steps", riscv.Disasm(c.in))
	return
}

// TestRegUsageCoversExecution checks the operand table's roles against the
// executor, which was written without it: for legal instances of every op
// (× LMUL 1, 2, 4, 8 for vector ops) every register whose value one Step
// changes must be in RegUsage's Writes*, and for the register-only class —
// what look-ahead retires ahead of the clock on the strength of RegUsage —
// and vector arithmetic no register outside Reads* may influence a written
// value or the next PC.
//
// SEW is 64 throughout. At a smaller SEW a vector load or store whose
// encoded width exceeds SEW spans EEW/SEW×LMUL registers while RegUsage
// (which is not told SEW) says LMUL: vsetvli e8,m1 then vle64.v v8 writes
// v8…v15 against WritesV = v8. No shipped kernel mixes widths that way; it
// is recorded in EXPERIMENTS.md E18 and left for its own issue.
func TestRegUsageCoversExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := newTestHart(t)
	for a := uint64(reguseScratch - 0x1000); a < reguseScratch+0x2000; a += 8 {
		h.Mem.Write64(a, rng.Uint64())
	}
	c := &reguseCase{h: h, v: make([]byte, len(h.V))}

	for _, op := range riscv.Ops() {
		if op == riscv.OpECALL || op == riscv.OpEBREAK {
			continue // they end the run
		}
		lmuls := []uint{1}
		if op.Classify() == riscv.ClassVector || op.IsVectorMem() {
			lmuls = []uint{1, 2, 4, 8}
		}
		retired := 0
		for _, lmul := range lmuls {
			for draw := 0; draw < 8; draw++ {
				in := riscv.Legal(rng, op)
				cls := op.Classify()
				mem := cls&(riscv.ClassLoad|riscv.ClassStore|riscv.ClassAtomic) != 0
				if op.IsVector() { // register groups are LMUL-aligned
					in.Rd, in.Rs1, in.Rs2 = in.Rd&^uint8(lmul-1), in.Rs1&^uint8(lmul-1), in.Rs2&^uint8(lmul-1)
				}
				if mem && in.Rs1 == 0 {
					in.Rs1 = 5 // a base register that can hold an address
				}
				strided := op >= riscv.OpVLSE8 && op <= riscv.OpVSSE64
				if strided && (in.Rs2 == in.Rs1 || in.Rs2 == 0) {
					in.Rs2 = in.Rs1 ^ 1
				}
				for i := range c.x {
					c.x[i], c.f[i] = rng.Uint64(), rng.Uint64()
				}
				c.x[0] = 0
				rng.Read(c.v)
				if mem {
					c.x[in.Rs1] = uint64(reguseScratch - in.Imm)
				}
				if strided {
					c.x[in.Rs2] = 16
				}
				if op == riscv.OpVSETVL && in.Rs2 != 0 {
					c.x[in.Rs2] = uint64(rng.Intn(4) | rng.Intn(4)<<3) // a legal vtype
				}
				c.in, c.lmul = in, lmul
				h.Mem.Write32(textBase, riscv.MustEncode(in))
				var prime func(*Hart)
				if op >= riscv.OpVLUXEI8 && op <= riscv.OpVSUXEI64 {
					prime = func(h *Hart) { // small byte offsets at the index width
						for i := uint64(0); i < h.VL; i++ {
							h.vSetInt(in.Rs2, i, op.ElemBytes()*8, i*8%2048)
						}
					}
				}
				before, after, ok := c.run(t, prime)
				if !ok {
					continue // e.g. a reserved encoding the executor faults on
				}
				retired++
				use := riscv.RegUsage(in, lmul)
				text := riscv.Disasm(in)
				for r := 0; r < 32; r++ {
					if before.x[r] != after.x[r] && use.WritesX>>r&1 == 0 {
						t.Errorf("%s (lmul %d): x%d changed, WritesX = %#x", text, lmul, r, use.WritesX)
					}
					if before.f[r] != after.f[r] && use.WritesF>>r&1 == 0 {
						t.Errorf("%s (lmul %d): f%d changed, WritesF = %#x", text, lmul, r, use.WritesF)
					}
					lo, hi := r*int(h.VLenB), (r+1)*int(h.VLenB)
					if string(before.v[lo:hi]) != string(after.v[lo:hi]) && use.WritesV>>r&1 == 0 {
						t.Errorf("%s (lmul %d): v%d changed, WritesV = %#x", text, lmul, r, use.WritesV)
					}
				}
				if !registerOnly(op) && cls != riscv.ClassVector {
					continue // memory, CSR and reservation state outlive the step
				}
				// Perturb each register RegUsage says is neither read nor
				// written (a masked or element-0 write keeps part of the old
				// value); nothing the instruction produces may move.
				for r := 1; r < 96; r++ {
					r, n := r, r%32
					file, touched := "x", use.ReadsX|use.WritesX
					switch r / 32 {
					case 1:
						file, touched = "f", use.ReadsF|use.WritesF
					case 2:
						file, touched = "v", use.ReadsV|use.WritesV
					}
					if touched>>n&1 != 0 {
						continue
					}
					_, got, ok := c.run(t, func(h *Hart) {
						switch file {
						case "x":
							h.X[n] = ^h.X[n]
						case "f":
							h.F[n] = ^h.F[n]
						default:
							for i := n * int(h.VLenB); i < (n+1)*int(h.VLenB); i++ {
								h.V[i] = ^h.V[i]
							}
						}
					})
					if !ok || got.pc != after.pc {
						t.Errorf("%s: perturbing %s%d (not in Reads) moved the next pc %#x → %#x", text, file, n, after.pc, got.pc)
					}
					for w := 0; w < 32; w++ {
						lo, hi := w*int(h.VLenB), (w+1)*int(h.VLenB)
						if use.WritesX>>w&1 != 0 && got.x[w] != after.x[w] ||
							use.WritesF>>w&1 != 0 && got.f[w] != after.f[w] ||
							use.WritesV>>w&1 != 0 && string(got.v[lo:hi]) != string(after.v[lo:hi]) {
							t.Errorf("%s (lmul %d): perturbing %s%d (not in Reads) moved register %d of a written file", text, lmul, file, n, w)
						}
					}
				}
			}
		}
		if retired == 0 {
			t.Errorf("%v: no draw retired", op)
		}
	}
}
