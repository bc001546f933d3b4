package cpu

import (
	"math/bits"

	"github.com/coyote-sim/coyote/internal/mem"
	"github.com/coyote-sim/coyote/internal/riscv"
	"github.com/coyote-sim/coyote/internal/san"
)

// Text is a program's text segment decoded once, ahead of the run, and
// read through a pointer by every hart that executes it (core.LoadProgram
// builds one per System; all harts run the same binary). Element i is the
// instruction word at base+4i. Nothing writes a Text between its load and
// the end of a run except fence.i, on the orchestrator's serial path, so
// the speculative workers of a parallel cycle read it without
// synchronisation, and per-hart decode state does not exist: the host
// working set of a 128-hart cycle holds one copy of the loop body.
type Text struct {
	base uint64
	code []blockInstr

	// vuse holds each vector op's register footprint at LMUL 1, 2, 4 and 8,
	// four consecutive entries starting at its blockInstr.vuse. A hart
	// picks by its own vtype, so harts at different LMULs share an element.
	vuse []riscv.RegUse

	// gen counts loads. A speculation armed under one generation does not
	// validate under another: the hart that executed fence.i committed
	// ahead of it, and serially it would have fetched the new decode.
	gen uint64

	// changed records whether the latest reload (fence.i) found any word
	// different from the element it replaced; coyotesan's core.due reads it.
	changed bool
}

// blockInstr is one pre-decoded instruction of a Text.
type blockInstr struct {
	in   riscv.Instr  // OpInvalid for an undecodable word
	use  riscv.RegUse // register footprint; vector ops use Text.vuse
	raw  uint32
	vuse uint32

	// run is the length of the superblock starting here: the instructions
	// up to and including the next branch, or up to (excluding) the next
	// system instruction, atomic, undecodable word or the end of the Text.
	// Zero sends the instruction through Step. A block is code[i:i+run];
	// branching into the middle of one lands on its suffix.
	run uint32

	isVec bool
	fast  uint8 // fastNone or the inline class of a hot opcode, see fastClass

	// ahead marks an instruction a hart may execute before its cycle comes
	// (StepAhead): one of the register-only class, in an image that holds
	// no fence.i.
	ahead bool
}

// NewText decodes the words instruction words of m starting at base.
//
//coyote:allocfree-boundary builds an image: once per program load, or once in the life of a hart nobody gave one
func NewText(m *mem.Memory, base uint64, words int) *Text {
	t := &Text{base: base, code: make([]blockInstr, words)}
	t.load(m)
	return t
}

// load decodes the image from memory: at construction and at fence.i.
//
//coyote:specwrite-ok a new image is nobody's yet, and Step refuses fence.i under armed speculation
func (t *Text) load(m *mem.Memory) {
	t.vuse = t.vuse[:0]
	fenceI := false
	changed := false
	for i := len(t.code) - 1; i >= 0; i-- {
		raw := m.Read32(t.base + uint64(i)*4)
		changed = changed || raw != t.code[i].raw
		t.set(i, raw)
		fenceI = fenceI || t.code[i].in.Op == riscv.OpFENCEI
	}
	if fenceI {
		// A fence.i may re-decode any element under a hart that has run
		// ahead of the clock through the old one (DESIGN.md §8): an image
		// that holds a fence.i is executed a cycle at a time.
		for i := range t.code {
			t.code[i].ahead = false
		}
	}
	t.changed = changed && t.gen > 0
	t.gen++
}

// set decodes raw into element i. Its run builds on element i+1's, so a
// caller decoding several goes last to first.
//
//coyote:specwrite-ok called by load, and on the storing hart's own scratch image
func (t *Text) set(i int, raw uint32) {
	in, _ := riscv.Decode(raw) // failure leaves OpInvalid; Step faults the hart that gets there
	bi := blockInstr{in: in, raw: raw, isVec: in.Op.IsVector(), fast: fastClass(in.Op), ahead: registerOnly(in.Op)}
	switch {
	case in.Op == riscv.OpInvalid || blockTerminates(in.Op):
	case i+1 == len(t.code) || in.Op.Classify()&riscv.ClassBranch != 0:
		bi.run = 1
	default:
		bi.run = 1 + t.code[i+1].run
	}
	if bi.isVec {
		bi.vuse = uint32(len(t.vuse))
		for lmul := uint(1); lmul <= 8; lmul <<= 1 {
			t.vuse = append(t.vuse, riscv.RegUsage(in, lmul)) //coyote:alloc-ok image load and fence.i are cold; the one-instruction scratch image grows to four entries once
		}
	} else {
		bi.use = riscv.RegUsage(in, 1)
	}
	t.code[i] = bi
}

// blockTerminates reports whether op must not be folded into a superblock
// at all: system instructions (ecall/ebreak/fence/fence.i, CSR ops, the
// vsetvl family — anything that can read batched counters or change LMUL)
// and atomics, which refuse to run speculatively. Branches are not
// listed: they end a block as its last instruction.
func blockTerminates(op riscv.Op) bool {
	return op.Classify()&(riscv.ClassSystem|riscv.ClassAtomic) != 0
}

// registerOnly reports whether op belongs to the class a hart may execute
// ahead of the clock: it reads and writes nothing but the hart's own X and
// F registers and PC, and execute cannot fault on it, so nothing outside
// the hart — another hart, the uncore, the tracer — can tell on which
// cycle it ran. An allow-list: an op is outside the class until it is
// named here (loads, stores, atomics, CSR and system instructions and the
// whole vector extension stay out).
func registerOnly(op riscv.Op) bool {
	switch op {
	case riscv.OpLUI, riscv.OpAUIPC, riscv.OpJAL, riscv.OpJALR,
		riscv.OpBEQ, riscv.OpBNE, riscv.OpBLT, riscv.OpBGE, riscv.OpBLTU, riscv.OpBGEU,
		riscv.OpADDI, riscv.OpSLTI, riscv.OpSLTIU, riscv.OpXORI, riscv.OpORI, riscv.OpANDI,
		riscv.OpSLLI, riscv.OpSRLI, riscv.OpSRAI,
		riscv.OpADD, riscv.OpSUB, riscv.OpSLL, riscv.OpSLT, riscv.OpSLTU, riscv.OpXOR,
		riscv.OpSRL, riscv.OpSRA, riscv.OpOR, riscv.OpAND,
		riscv.OpADDIW, riscv.OpSLLIW, riscv.OpSRLIW, riscv.OpSRAIW,
		riscv.OpADDW, riscv.OpSUBW, riscv.OpSLLW, riscv.OpSRLW, riscv.OpSRAW,
		riscv.OpMUL, riscv.OpMULH, riscv.OpMULHSU, riscv.OpMULHU,
		riscv.OpDIV, riscv.OpDIVU, riscv.OpREM, riscv.OpREMU,
		riscv.OpMULW, riscv.OpDIVW, riscv.OpDIVUW, riscv.OpREMW, riscv.OpREMUW,
		riscv.OpFADDS, riscv.OpFSUBS, riscv.OpFMULS, riscv.OpFDIVS, riscv.OpFSQRTS,
		riscv.OpFSGNJS, riscv.OpFSGNJNS, riscv.OpFSGNJXS, riscv.OpFMINS, riscv.OpFMAXS,
		riscv.OpFCVTWS, riscv.OpFCVTWUS, riscv.OpFCVTLS, riscv.OpFCVTLUS,
		riscv.OpFCVTSW, riscv.OpFCVTSWU, riscv.OpFCVTSL, riscv.OpFCVTSLU,
		riscv.OpFMVXW, riscv.OpFMVWX, riscv.OpFEQS, riscv.OpFLTS, riscv.OpFLES, riscv.OpFCLASSS,
		riscv.OpFMADDS, riscv.OpFMSUBS, riscv.OpFNMSUBS, riscv.OpFNMADDS,
		riscv.OpFADDD, riscv.OpFSUBD, riscv.OpFMULD, riscv.OpFDIVD, riscv.OpFSQRTD,
		riscv.OpFSGNJD, riscv.OpFSGNJND, riscv.OpFSGNJXD, riscv.OpFMIND, riscv.OpFMAXD,
		riscv.OpFCVTWD, riscv.OpFCVTWUD, riscv.OpFCVTLD, riscv.OpFCVTLUD,
		riscv.OpFCVTDW, riscv.OpFCVTDWU, riscv.OpFCVTDL, riscv.OpFCVTDLU,
		riscv.OpFCVTSD, riscv.OpFCVTDS,
		riscv.OpFMVXD, riscv.OpFMVDX, riscv.OpFEQD, riscv.OpFLTD, riscv.OpFLED, riscv.OpFCLASSD,
		riscv.OpFMADDD, riscv.OpFMSUBD, riscv.OpFNMSUBD, riscv.OpFNMADDD:
		return true
	}
	return false
}

// TextReload reports how many times the hart's image has been decoded from
// memory and whether the latest reload changed any element (coyotesan's
// core.due invariant: no hart may be ahead of the clock when one does).
func (h *Hart) TextReload() (gen uint64, changed bool) { return h.text.gen, h.text.changed }

// lmulIndex selects among a vector op's four Text.vuse entries. LMUL is
// 1, 2, 4 or 8, or 0 before the first vsetvl, which counts as 1.
func lmulIndex(lmul uint) uint32 { return uint32(bits.Len(lmul >> 1)) }

// SetText points the hart at a decoded image of the program it is about to
// run. A hart never given one, or given an empty one (a unit test, a
// unit-cost driver), makes its own at its next fetch, see atCold.
func (h *Hart) SetText(t *Text) {
	h.text = t
	h.lastFetchValid = false // the fetch fast path vouches for a line of the old text
}

// slot returns the index of pc's element. A pc outside t or off a word
// boundary (the low bits rotate to the top) comes out ≥ len(t.code), and
// the caller turns to atCold.
func (t *Text) slot(pc uint64) uint64 { return bits.RotateLeft64(pc-t.base, -2) }

// atCold serves a PC the image does not cover — a jump into data, code a
// test poked into memory beside the program — by decoding that one word
// from memory into the hart's scratch image, at every fetch.
//
// A hart nobody gave an image has no loader to tell it where its text is:
// it images the decodable words from its first aligned fetch on, once.
// Either way pc is element 0 of the image returned.
func (h *Hart) atCold(pc uint64) *Text {
	if len(h.text.code) == 0 && pc&3 == 0 && !h.spec.active {
		n := 0
		for n < 1<<16 {
			if _, err := riscv.Decode(h.Mem.Read32(pc + uint64(n)*4)); err != nil {
				break
			}
			n++
		}
		if n > 0 {
			h.text = NewText(h.Mem, pc, n)
			return h.text
		}
	}
	c := &h.cold
	c.base = pc
	c.vuse = c.vuse[:0]
	c.set(0, h.fetchRead32(pc))
	return c
}

// fetchRead32 reads an instruction word. Unlike memRead32 it never logs a
// speculative read: text only changes at fence.i, which no speculation
// survives. Under armed speculation the read must still go through the
// private view — the shared Memory accessors mutate their lookaside and
// allocate pages, which would race with other workers.
func (h *Hart) fetchRead32(a uint64) uint32 {
	if h.spec.active {
		return h.spec.view.Read32(a)
	}
	return h.Mem.Read32(a)
}

// sanCheckFetch panics (via san.Check) when the instruction about to
// execute is not the word in memory: a store reached text and no fence.i
// followed, so the image would go on executing the old code. Only called
// under san.Enabled.
func (h *Hart) sanCheckFetch(pc uint64, bi *blockInstr) {
	san.Check(h.fetchRead32(pc) == bi.raw, h.sanNow(), "cpu.selfmod",
		"executing a stale pre-decoded instruction (store to text without fence.i?)",
		uint64(h.ID), pc)
}
