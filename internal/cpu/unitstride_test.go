package cpu

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/coyote-sim/coyote/internal/ckpt"
	"github.com/coyote-sim/coyote/internal/mem"
	"github.com/coyote-sim/coyote/internal/riscv"
)

// unitStrideOps maps an element width in bytes to its unit-stride load and
// store.
var unitStrideOps = map[uint64][2]riscv.Op{
	1: {riscv.OpVLE8, riscv.OpVSE8},
	2: {riscv.OpVLE16, riscv.OpVSE16},
	4: {riscv.OpVLE32, riscv.OpVSE32},
	8: {riscv.OpVLE64, riscv.OpVSE64},
}

// strideShot is everything one vector access can leave behind.
type strideShot struct {
	v       []byte
	memory  []byte
	pages   int
	l1d     []byte // the L1D's checkpoint: tag store, LRU stamps, statistics
	stats   Stats
	pending [regKinds]uint32
	counts  [regKinds][32]uint16
	events  []MemEvent
}

// runUnitStride executes one unit-stride access of vl elements of eb bytes
// at base on a fresh hart — unmasked, or under v0.t with v0 all ones —
// after priming memory and the L1D identically for both forms: the lines
// the access starts in alternate between resident and evicted by dirty
// lines of their own set, the first one evicted, so it meets misses,
// writebacks and, past its first line, hits.
// untouched, when non-zero, is the first page the priming leaves alone.
func runUnitStride(t *testing.T, store, masked bool, eb, lmul, vl, base, untouched uint64) strideShot {
	t.Helper()
	h, err := NewHart(0, DefaultConfig(), mem.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := vl * eb
	lo, hi := base-2048, base+n+2048
	if untouched != 0 {
		hi = untouched
	}
	fill := make([]byte, hi-lo)
	for i := range fill {
		fill[i] = byte(i*7 + 3)
	}
	h.Mem.WriteBytes(lo, fill)
	for i := range h.V {
		h.V[i] = byte(i*13 + 5)
	}
	for i := uint64(0); i < uint64(h.VLenB); i++ {
		h.V[i] = 0xff // v0: every element active
	}
	ways := uint64(h.L1D.Config().Ways)
	setStride := uint64(h.L1D.Config().SizeBytes) / ways
	for k, line := 0, h.L1D.LineAddr(base); line <= h.L1D.LineAddr(base+n-1)+64; k, line = k+1, line+64 {
		if k%3 == 1 {
			h.L1D.Access(line, false)
			continue
		}
		for w := uint64(1); w <= ways; w++ {
			h.L1D.Access(line+w*setStride, true)
		}
	}
	h.L1D.ResetStats()

	sew := uint(eb * 8)
	h.X[10] = vl
	next := uint64(0)
	if res := h.execute(vsetvli(5, 10, sew, uint(lmul)), &next, 0); res != StepExecuted || h.VL != vl {
		t.Fatalf("vsetvli e%d m%d vl %d: %v, vl %d", sew, lmul, vl, res, h.VL)
	}
	op := unitStrideOps[eb][0]
	if store {
		op = unitStrideOps[eb][1]
	}
	h.X[11] = base
	if res := h.execute(riscv.Instr{Op: op, Rd: 8, Rs1: 11, VM: !masked}, &next, 0); res != StepExecuted {
		t.Fatalf("%v: %v", op, h.Fault)
	}

	s := strideShot{
		v:       append([]byte(nil), h.V...),
		pages:   h.Mem.Pages(),
		stats:   h.Stats,
		pending: h.pending,
		counts:  h.pendingCount,
		events:  append([]MemEvent(nil), h.Events...),
	}
	var w ckpt.Writer
	if err := h.L1D.Checkpoint(&w); err != nil {
		t.Fatal(err)
	}
	s.l1d = w.Bytes()
	s.memory = h.Mem.ReadBytes(lo-4096, int(hi-lo)+2*4096)
	return s
}

// TestUnitStrideMatchesElementPath: the line-granular unit-stride path
// (an unmasked access) leaves exactly what the per-element path (the same
// access under v0.t with every mask bit set) leaves — registers, memory,
// populated pages, L1D state and statistics, hart statistics, pending
// registers and the miss and writeback events in order — at every element
// width, over vl 1, a partial vl and VLMAX at LMUL 1 and 8, from a
// line-aligned base, a mid-line one, one that puts the last element across
// a line boundary, one that crosses a page and one that runs into a page
// nothing touched before.
func TestUnitStrideMatchesElementPath(t *testing.T) {
	vlenb := uint64(DefaultConfig().VLenBits / 8)
	for _, eb := range []uint64{1, 2, 4, 8} {
		vlmax := vlenb / eb
		for _, shape := range []struct{ lmul, vl uint64 }{{1, 1}, {1, vlmax/2 + 1}, {1, vlmax}, {8, 8 * vlmax}} {
			bases := []struct {
				name            string
				base, untouched uint64
			}{
				{"line-aligned", 0x40000, 0},
				{"mid-line", 0x40000 + 40, 0},
				// The last element starts half an element before a line
				// boundary: its first byte's line is the last one touched.
				{"last-straddles-line", 0x60040 - max(eb/2, 1) - (shape.vl-1)*eb, 0},
				{"straddles-page", 0x81000 - shape.vl/2*eb - eb/2, 0},
				{"into-untouched-page", 0xa1000 - shape.vl/2*eb, 0xa1000},
			}
			for _, b := range bases {
				for _, store := range []bool{false, true} {
					name := fmt.Sprintf("e%d/m%d/vl%d/%s/store=%v", eb*8, shape.lmul, shape.vl, b.name, store)
					bulk := runUnitStride(t, store, false, eb, shape.lmul, shape.vl, b.base, b.untouched)
					elem := runUnitStride(t, store, true, eb, shape.lmul, shape.vl, b.base, b.untouched)
					switch {
					case !bytes.Equal(bulk.v, elem.v):
						t.Errorf("%s: vector registers differ", name)
					case !bytes.Equal(bulk.memory, elem.memory) || bulk.pages != elem.pages:
						t.Errorf("%s: memory differs (%d pages, per element %d)", name, bulk.pages, elem.pages)
					case !bytes.Equal(bulk.l1d, elem.l1d):
						t.Errorf("%s: L1D state or statistics differ", name)
					case bulk.stats != elem.stats:
						t.Errorf("%s: stats %+v, per element %+v", name, bulk.stats, elem.stats)
					case bulk.pending != elem.pending || bulk.counts != elem.counts:
						t.Errorf("%s: pending registers differ", name)
					case !reflect.DeepEqual(bulk.events, elem.events):
						t.Errorf("%s: events %v, per element %v", name, bulk.events, elem.events)
					}
					if bulk.stats.ElemAccesses != shape.vl || bulk.stats.LoadMisses+bulk.stats.StoreMisses == 0 ||
						bulk.stats.Writebacks == 0 {
						t.Errorf("%s: test premise broken: stats %+v", name, bulk.stats)
					}
				}
			}
		}
	}
}

// TestStoresKillReservations: hart A's reservation dies when hart B stores
// into its line by a scalar store, an AMO, a unit-stride or strided vector
// store, or a vector store committed from a speculative quantum, and lives
// through the same store into another line. Hart B holds a reservation of
// its own elsewhere, so the set is never empty while B stores. The live
// count matches the valid flags after every step and after a restore.
func TestStoresKillReservations(t *testing.T) {
	const resvLine = 0x3000
	cases := []struct {
		name       string
		spec       bool
		in         riscv.Instr
		hit, other uint64 // base address into resvLine, and one clear of it
		stride     uint64
	}{
		{"sd", false, riscv.Instr{Op: riscv.OpSD, Rs1: 11, Rs2: 12}, resvLine + 16, resvLine + 80, 0},
		{"amoadd.d", false, riscv.Instr{Op: riscv.OpAMOADDD, Rd: 13, Rs1: 11, Rs2: 12}, resvLine + 24, resvLine + 88, 0},
		// vl 16 of e64 spans two lines; the reservation sits in the second.
		{"vse64", false, riscv.Instr{Op: riscv.OpVSE64, Rd: 8, Rs1: 11, VM: true}, resvLine - 64, resvLine + 64, 0},
		{"vsse64", false, riscv.Instr{Op: riscv.OpVSSE64, Rd: 8, Rs1: 11, Rs2: 14, VM: true}, resvLine - 15*64, resvLine + 64, 64},
		{"vse64-committed", true, riscv.Instr{Op: riscv.OpVSE64, Rd: 8, Rs1: 11, VM: true}, resvLine - 64, resvLine + 64, 0},
	}
	for _, c := range cases {
		for _, into := range []bool{true, false} {
			name := fmt.Sprintf("%s/into-line=%v", c.name, into)
			m := mem.New()
			resv := NewReservations(2)
			a, errA := NewHart(0, DefaultConfig(), m, resv)
			b, errB := NewHart(1, DefaultConfig(), m, resv)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			step := func(h *Hart, in riscv.Instr) {
				t.Helper()
				next := uint64(0)
				if res := h.execute(in, &next, 0); res != StepExecuted {
					t.Fatalf("%s: %v: %v", name, in.Op, h.Fault)
				}
				h.Events = h.Events[:0]
				if resv.live != resv.valids() {
					t.Fatalf("%s: after %v, live %d with %d valid flags", name, in.Op, resv.live, resv.valids())
				}
			}
			a.X[11], b.X[11] = resvLine+8, 0x5000
			step(a, riscv.Instr{Op: riscv.OpLRD, Rd: 5, Rs1: 11})
			step(b, riscv.Instr{Op: riscv.OpLRD, Rd: 5, Rs1: 11})
			b.X[10] = 16
			step(b, vsetvli(5, 10, 64, 1))

			b.X[11], b.X[12], b.X[14] = c.other, 7, c.stride
			if into {
				b.X[11] = c.hit
			}
			if c.spec {
				b.BeginSpec()
			}
			step(b, c.in)
			if c.spec {
				if !resv.valid[0] {
					t.Fatalf("%s: a speculative store killed a reservation before commit", name)
				}
				b.CommitSpec()
			}
			if resv.valid[0] == into || !resv.valid[1] || resv.live != resv.valids() {
				t.Errorf("%s: hart A's reservation valid=%v, hart B's %v, live %d", name, resv.valid[0], resv.valid[1], resv.live)
			}

			var w ckpt.Writer
			if err := resv.Checkpoint(&w); err != nil {
				t.Fatal(err)
			}
			back := NewReservations(2)
			if err := back.Restore(ckpt.NewReader(w.Bytes())); err != nil {
				t.Fatal(err)
			}
			if back.live != resv.live || back.live != back.valids() {
				t.Errorf("%s: restored live %d, saved %d", name, back.live, resv.live)
			}
		}
	}
}

// BenchmarkVectorUnitStride: one op is a vle64.v and a vse64.v at vl 16,
// two L1D-resident lines each — the line-granular path's steady state,
// which must not allocate.
func BenchmarkVectorUnitStride(b *testing.B) {
	h, err := NewHart(0, DefaultConfig(), mem.New(), nil)
	if err != nil {
		b.Fatal(err)
	}
	h.X[10], h.X[11], h.X[12] = 16, 0x10000, 0x20000
	prog := []riscv.Instr{
		vsetvli(5, 10, 64, 1),
		{Op: riscv.OpVLE64, Rd: 8, Rs1: 11, VM: true},
		{Op: riscv.OpVSE64, Rd: 8, Rs1: 12, VM: true},
	}
	next := uint64(0)
	op := func() {
		for _, in := range prog[1:] {
			if h.execute(in, &next, 0) != StepExecuted {
				b.Fatal(h.Fault)
			}
		}
		h.Events = h.Events[:0]
	}
	h.execute(prog[0], &next, 0)
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		b.Errorf("%v allocations per op, want 0", allocs)
	}
}
