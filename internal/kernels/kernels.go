// Package kernels provides the bare-metal workloads the paper runs on
// Coyote (§III-A): scalar and vector matrix multiplication, scalar SpMV,
// three vector SpMV implementations, and a vector stencil — plus axpy
// kernels used by the quickstart. Each kernel is genuine RISC-V assembly
// assembled by internal/asm; data is generated deterministically by the
// host and placed in simulated memory, with pointers passed through an
// argument block at the "args" symbol. All kernels partition work across
// harts via the mhartid CSR and exit through the bare-metal exit ecall,
// the same environment Spike's bare-metal mode gives Coyote.
package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/coyote-sim/coyote/internal/mem"
)

// Params parameterises a kernel run.
type Params struct {
	N       int     // problem order (matrix dimension / vector length / grid side)
	Cores   int     // number of harts executing the kernel
	Density float64 // nonzero fraction per row for SpMV (default 0.02)
	Seed    int64   // data generator seed
}

// WithDefaults fills unset fields — the canonicalization every kernel
// applies before Setup/Verify. Exported so the result cache can hash
// the *effective* parameters: Params{} and Params{N: 64, Seed: 42}
// describe the same run and must produce the same canonical key.
func (p Params) WithDefaults() Params {
	if p.N == 0 {
		p.N = 64
	}
	if p.Cores == 0 {
		p.Cores = 1
	}
	if p.Density == 0 {
		p.Density = 0.02
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// withDefaults is the historical unexported spelling kept for the
// kernel implementations.
func (p Params) withDefaults() Params { return p.WithDefaults() }

// Kernel is one runnable workload.
type Kernel struct {
	Name        string
	Description string
	Vector      bool
	Source      string
	// Setup writes input data into memory and fills the argument block.
	Setup func(m *mem.Memory, args uint64, p Params)
	// Verify checks outputs against a host-side reference.
	Verify func(m *mem.Memory, args uint64, p Params) error
}

var registry = map[string]*Kernel{}
var order []string

func register(k *Kernel) {
	if _, dup := registry[k.Name]; dup {
		panic("kernels: duplicate " + k.Name)
	}
	registry[k.Name] = k
	order = append(order, k.Name)
}

// Get returns the named kernel.
func Get(name string) (*Kernel, error) {
	k, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown kernel %q (have %v)", name, Names())
	}
	return k, nil
}

// Names lists registered kernels in registration order.
func Names() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// heapBase is where host-generated data lives: far above the program
// image (0x8000_0000) and the stacks (below 0x9000_0000).
const heapBase = 0xC000_0000

// heap is a bump allocator for kernel data.
type heap struct{ next uint64 }

func newHeap() *heap { return &heap{next: heapBase} }

func (h *heap) alloc(bytes int) uint64 {
	const align = 64
	h.next = (h.next + align - 1) &^ (align - 1)
	addr := h.next
	h.next += uint64(bytes)
	return addr
}

// writeF64s stores a float64 slice at addr.
func writeF64s(m *mem.Memory, addr uint64, vals []float64) {
	for i, v := range vals {
		m.WriteFloat64(addr+uint64(i)*8, v)
	}
}

// writeU64s stores a uint64 slice at addr.
func writeU64s(m *mem.Memory, addr uint64, vals []uint64) {
	for i, v := range vals {
		m.Write64(addr+uint64(i)*8, v)
	}
}

// readF64s loads n float64s from addr.
func readF64s(m *mem.Memory, addr uint64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m.ReadFloat64(addr + uint64(i)*8)
	}
	return out
}

// randMatrix returns an n×m row-major matrix of small deterministic values.
func randMatrix(rng *rand.Rand, n, m int) []float64 {
	out := make([]float64, n*m)
	for i := range out {
		out[i] = math.Round(rng.Float64()*8-4) / 4 // small exact-ish values
	}
	return out
}

// randVector returns an n-vector of deterministic values.
func randVector(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round(rng.Float64()*16-8) / 8
	}
	return out
}

// CSR is a compressed-sparse-row matrix with 64-bit indices (matching the
// in-memory layout the SpMV kernels consume).
type CSR struct {
	N      int
	RowPtr []uint64 // len N+1
	Col    []uint64 // element indices
	Val    []float64
}

// NNZ returns the number of stored nonzeros.
func (c *CSR) NNZ() int { return len(c.Val) }

// MaxRowNNZ returns the widest row.
func (c *CSR) MaxRowNNZ() int {
	max := 0
	for i := 0; i < c.N; i++ {
		if n := int(c.RowPtr[i+1] - c.RowPtr[i]); n > max {
			max = n
		}
	}
	return max
}

// RandCSR builds a deterministic random sparse matrix: each row gets
// round(density*n) nonzeros (at least one) at distinct sorted columns.
func RandCSR(n int, density float64, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	perRow := int(density * float64(n))
	if perRow < 1 {
		perRow = 1
	}
	if perRow > n {
		perRow = n
	}
	c := &CSR{
		N:      n,
		RowPtr: make([]uint64, n+1),
		Col:    make([]uint64, 0, n*perRow),
		Val:    make([]float64, 0, n*perRow),
	}
	// stamp[col] == i+1 once row i has drawn col; one array and one column
	// buffer serve every row. The draw order — Intn until perRow distinct
	// columns, then one Float64 per column in ascending order — is part of
	// every sparse kernel's input data (TestRandCSRPinned).
	stamp := make([]int, n)
	cols := make([]int, 0, perRow)
	for i := 0; i < n; i++ {
		cols = cols[:0]
		for len(cols) < perRow {
			col := rng.Intn(n)
			if stamp[col] != i+1 {
				stamp[col] = i + 1
				cols = append(cols, col)
			}
		}
		sort.Ints(cols)
		for _, col := range cols {
			c.Col = append(c.Col, uint64(col))
			c.Val = append(c.Val, math.Round(rng.Float64()*8-4)/4)
		}
		c.RowPtr[i+1] = uint64(len(c.Val))
	}
	return c
}

// SpMV computes y = A·x on the host (reference).
func (c *CSR) SpMV(x []float64) []float64 {
	y := make([]float64, c.N)
	for i := 0; i < c.N; i++ {
		acc := 0.0
		for j := c.RowPtr[i]; j < c.RowPtr[i+1]; j++ {
			acc += c.Val[j] * x[c.Col[j]]
		}
		y[i] = acc
	}
	return y
}

// ToELL converts to column-major ELLPACK with zero padding.
func (c *CSR) ToELL() (val []float64, col []uint64, width int) {
	width = c.MaxRowNNZ()
	val = make([]float64, width*c.N)
	col = make([]uint64, width*c.N)
	for i := 0; i < c.N; i++ {
		k := 0
		for j := c.RowPtr[i]; j < c.RowPtr[i+1]; j++ {
			val[k*c.N+i] = c.Val[j]
			col[k*c.N+i] = c.Col[j]
			k++
		}
		// Remaining slots keep val 0 / col 0: harmless contributions.
	}
	return val, col, width
}

// matmulRef computes C = A·B on the host.
func matmulRef(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for k := 0; k < n; k++ {
				acc += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = acc
		}
	}
	return c
}

// compare checks two float slices with a relative tolerance (vector
// reductions reassociate, so exact equality is too strict).
func compare(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		diff := math.Abs(got[i] - want[i])
		scale := math.Max(1, math.Abs(want[i]))
		if diff/scale > 1e-9 || math.IsNaN(got[i]) {
			return fmt.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// exitSeq is the common kernel epilogue: exit(hartid).
const exitSeq = `
	li   a7, 93
	csrr a0, mhartid
	ecall
`

// argsBlock reserves the argument block every kernel shares.
const argsBlock = `
.data
.align 6
args: .zero 128
`
