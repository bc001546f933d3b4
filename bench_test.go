// Benchmark harness: one benchmark family per experiment in DESIGN.md §4.
// Every benchmark reports MIPS (the paper's Figure 3 metric: simulated
// instructions per wall-clock second) and simcycles (simulated execution
// time, the metric of the qualitative experiments). Regenerate everything
// with:
//
//	go test -bench=. -benchmem
//
// Use -benchtime 1x for a quick pass; larger -benchtime averages out
// wall-clock noise in the MIPS numbers.
package coyote

import (
	"fmt"
	"testing"
	"time"

	"github.com/coyote-sim/coyote/internal/san"
	"github.com/coyote-sim/coyote/internal/uncore"
)

// runPoint executes one kernel/config point b.N times, reporting MIPS and
// simulated cycles.
func runPoint(b *testing.B, kernel string, p Params, cfg Config) {
	b.Helper()
	var cycles uint64
	var mips float64
	for i := 0; i < b.N; i++ {
		res, err := RunKernel(kernel, p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
		mips += res.MIPS()
	}
	b.ReportMetric(mips/float64(b.N), "MIPS")
	b.ReportMetric(float64(cycles), "simcycles")
}

// --- E1/E2: Figure 3 — simulation throughput vs simulated core count ---

var fig3Cores = []int{1, 2, 4, 8, 16, 32, 64, 128}

// BenchmarkFig3Matmul sweeps core counts under the scalar matmul workload
// (weak-scaled: one matrix row per core, minimum 48).
func BenchmarkFig3Matmul(b *testing.B) {
	for _, c := range fig3Cores {
		n := c
		if n < 48 {
			n = 48
		}
		b.Run(fmt.Sprintf("cores-%d", c), func(b *testing.B) {
			runPoint(b, "matmul-scalar", Params{N: n, Cores: c}, DefaultConfig(c))
		})
	}
}

// BenchmarkFig3SpMV sweeps core counts under the scalar SpMV workload
// (weak-scaled rows, constant nonzeros per row).
func BenchmarkFig3SpMV(b *testing.B) {
	for _, c := range fig3Cores {
		n := 64 * c
		b.Run(fmt.Sprintf("cores-%d", c), func(b *testing.B) {
			runPoint(b, "spmv-scalar",
				Params{N: n, Cores: c, Density: 16 / float64(n)}, DefaultConfig(c))
		})
	}
}

// --- E3: interleaving ablation (paper §III-A Figure 3 discussion) ---

// BenchmarkInterleaving re-enables Spike-style instruction batching. The
// paper disabled interleaving to keep per-cycle fidelity; quantum > 1
// recovers simulation speed at the cost of timing fidelity (the simcycles
// metric shrinks because several instructions retire per orchestrated
// cycle).
func BenchmarkInterleaving(b *testing.B) {
	for _, q := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("quantum-%d", q), func(b *testing.B) {
			cfg := DefaultConfig(8)
			cfg.InterleaveQuantum = q
			runPoint(b, "matmul-scalar", Params{N: 48, Cores: 8}, cfg)
		})
	}
}

// --- E4: L2 shared vs tile-private ---

func BenchmarkL2Sharing(b *testing.B) {
	for _, shared := range []bool{true, false} {
		name := "private"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(16)
			cfg.Uncore.L2Shared = shared
			runPoint(b, "spmv-vector-gather",
				Params{N: 1024, Cores: 16, Density: 0.02}, cfg)
		})
	}
}

// --- E5: bank mapping policies ---

func BenchmarkBankMapping(b *testing.B) {
	for _, mapping := range []string{"set-interleave", "page-to-bank"} {
		b.Run(mapping, func(b *testing.B) {
			cfg := DefaultConfig(16)
			if mapping == "page-to-bank" {
				cfg.Uncore.Mapping = uncore.PageToBank
			}
			runPoint(b, "spmv-vector-gather",
				Params{N: 1024, Cores: 16, Density: 0.02}, cfg)
		})
	}
}

// --- E6: NoC latency sensitivity ---

func BenchmarkNoCLatency(b *testing.B) {
	for _, lat := range []uint64{1, 8, 64} {
		b.Run(fmt.Sprintf("lat-%d", lat), func(b *testing.B) {
			cfg := DefaultConfig(8)
			cfg.Uncore.NoCLatency = lat
			runPoint(b, "stencil-vector", Params{N: 192, Cores: 8}, cfg)
		})
	}
}

// --- E7: dense vs sparse data movement across every kernel ---

func BenchmarkKernels(b *testing.B) {
	for _, name := range Kernels() {
		name := name
		b.Run(name, func(b *testing.B) {
			runPoint(b, name, Params{N: 64, Cores: 8, Density: 0.05}, DefaultConfig(8))
		})
	}
}

// --- E10 (extension): Figure-2 LLC level ---

// BenchmarkLLC measures the third cache level from the paper's Figure 2
// example system: a capacity-bound sparse workload with and without a
// shared LLC in front of the memory controllers.
func BenchmarkLLC(b *testing.B) {
	for _, llc := range []bool{false, true} {
		name := "no-llc"
		if llc {
			name = "with-llc"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(8)
			// Shrink the L2 so the gathered x vector (32 KiB) no longer
			// fits there but is captured by the 2 MiB LLC.
			cfg.Uncore.L2.SizeBytes = 16 << 10
			cfg.Uncore.LLCEnable = llc
			runPoint(b, "spmv-vector-gather",
				Params{N: 4096, Cores: 8, Density: 0.01}, cfg)
		})
	}
}

// --- E11 (extension): L2 next-line prefetching (paper future work) ---

func BenchmarkPrefetch(b *testing.B) {
	// Latency-bound streaming: a single core exposes the full DRAM
	// round trip per line, which next-line prefetch hides.
	for _, depth := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			cfg := DefaultConfig(1)
			cfg.Uncore.PrefetchDepth = depth
			runPoint(b, "copy-vector", Params{N: 16384, Cores: 1}, cfg)
		})
	}
}

// --- E12 (extension): DRAM row-buffer model (paper future work) ---

func BenchmarkRowBuffer(b *testing.B) {
	// Latency-bound sequential streaming: consecutive lines hit the open
	// 8 KiB row, completing in MemRowHitLat instead of MemLatency.
	for _, rowBits := range []uint{0, 13} {
		name := "flat-latency"
		if rowBits > 0 {
			name = "open-row"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(1)
			cfg.Uncore.MemRowBits = rowBits
			runPoint(b, "copy-vector", Params{N: 16384, Cores: 1}, cfg)
		})
	}
}

// --- E13 (extension): MCPU gather offload (paper §I, ACME) ---

// BenchmarkMCPUOffload evaluates the paper's own architectural proposal:
// routing sparse gathers to memory-controller CPUs as aggregate
// descriptors instead of per-element cache transactions. Two regimes show
// the crossover: with the gathered x vector L2-resident the cache path
// wins (reuse), with x thrashing a small L2 the MCPU path wins (no
// pollution, one round trip per access).
func BenchmarkMCPUOffload(b *testing.B) {
	regimes := []struct {
		name string
		n    int
		l2KB int
	}{
		{"resident", 2048, 256},
		{"thrashing", 8192, 16},
	}
	for _, r := range regimes {
		for _, offload := range []bool{false, true} {
			name := r.name + "/cache-path"
			if offload {
				name = r.name + "/mcpu-path"
			}
			b.Run(name, func(b *testing.B) {
				cfg := DefaultConfig(8)
				cfg.Hart.MCPUOffload = offload
				cfg.Uncore.L2.SizeBytes = r.l2KB << 10
				runPoint(b, "spmv-vector-gather",
					Params{N: r.n, Cores: 8, Density: 16 / float64(r.n)}, cfg)
			})
		}
	}
}

// --- microbenchmarks of the simulator substrate itself ---

// BenchmarkStepRate measures the raw single-core instruction rate on an
// L1-resident loop: the simulator's per-instruction cost floor.
func BenchmarkStepRate(b *testing.B) {
	prog, err := Assemble(`
	_start:
		li   t0, 200000
	loop:
		addi t1, t1, 1
		addi t2, t2, 2
		add  t3, t1, t2
		addi t0, t0, -1
		bnez t0, loop
		li a7, 93
		li a0, 0
		ecall
	`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(DefaultConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		sys.LoadProgram(prog)
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		total += res.Instructions
	}
	b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "MIPS")
}

// BenchmarkRunLoop128Stalled measures the orchestrator's run loop in the
// regime the runnable-hart bitset targets: 128 cores that spend almost
// every cycle parked on L1-miss RAW stalls, so each simulated cycle has
// work for only a handful of harts. Every hart strides loads through a
// private 64 KiB region (a new cache line each iteration) and immediately
// consumes the loaded value.
func BenchmarkRunLoop128Stalled(b *testing.B) {
	prog, err := Assemble(`
	_start:
		csrr t0, mhartid
		li   s0, 0x10000000
		slli t1, t0, 16      # 64 KiB private region per hart
		add  s0, s0, t1
		li   t3, 256
	loop:
		ld   t4, 0(s0)       # miss: new line every iteration
		add  t5, t4, t0      # dependent use -> RAW stall until the fill
		addi s0, s0, 256
		addi t3, t3, -1
		bnez t3, loop
		li   a7, 93
		csrr a0, mhartid
		ecall
	`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(DefaultConfig(128))
		if err != nil {
			b.Fatal(err)
		}
		sys.LoadProgram(prog)
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		total += res.Instructions
	}
	b.ReportMetric(float64(total)/1e6/b.Elapsed().Seconds(), "MIPS")
}

// --- DESIGN.md §14: functional fast-forward throughput ---

// BenchmarkFunctionalMode measures the speedup lever of sampled
// simulation: the same matmul point executed in detailed mode and
// entirely in functional fast-forward (ISA-exact, cache-warming, no
// event calendar). The acceptance floor is a ≥5× MIPS ratio
// (TestFunctionalSpeedup enforces it; this benchmark reports the
// actual number).
func BenchmarkFunctionalMode(b *testing.B) {
	p := Params{N: 96, Cores: 4}
	b.Run("detailed", func(b *testing.B) {
		runPoint(b, "matmul-scalar", p, DefaultConfig(4))
	})
	b.Run("functional", func(b *testing.B) {
		var mips float64
		for i := 0; i < b.N; i++ {
			mips += functionalMIPS(b, p)
		}
		b.ReportMetric(mips/float64(b.N), "MIPS")
	})
}

// functionalMIPS runs matmul-scalar to completion in functional mode
// and reports simulated instructions per wall-clock second.
func functionalMIPS(tb testing.TB, p Params) float64 {
	tb.Helper()
	sys, err := PrepareKernel("matmul-scalar", p, DefaultConfig(p.Cores))
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now() //coyote:wallclock-ok benchmark throughput measurement
	done, err := sys.RunFunctional(^uint64(0) / 2)
	elapsed := time.Since(start) //coyote:wallclock-ok benchmark throughput measurement
	if err != nil {
		tb.Fatal(err)
	}
	if !done {
		tb.Fatal("functional run did not finish")
	}
	return float64(sys.TotalInstret()) / 1e6 / elapsed.Seconds()
}

// TestFunctionalSpeedup enforces the sampled-simulation acceptance
// floor: functional fast-forward must retire instructions at ≥5× the
// detailed-mode rate on matmul-scalar. The observed ratio is ~8-9× on
// an unloaded host; 5× still catches a functional path that
// accidentally grew calendar-shaped overhead. Wall-clock measurements
// on shared CI hosts swing by tens of percent between back-to-back
// runs, so each attempt measures detailed and functional as an
// adjacent pair and the best of three attempts is enforced — noise
// only ever lowers the ratio, never raises a broken path above the
// floor across all three pairs.
func TestFunctionalSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	if san.Enabled {
		t.Skip("the sanitizer build bypasses the warming filters and cross-checks every access, so the wall-clock ratio is not meaningful")
	}
	p := Params{N: 96, Cores: 4}
	// Warm-up pass for both paths (page faults, heap growth), then the
	// measured passes.
	if _, err := RunKernel("matmul-scalar", p, DefaultConfig(4)); err != nil {
		t.Fatal(err)
	}
	functionalMIPS(t, p)
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		res, err := RunKernel("matmul-scalar", p, DefaultConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		detailed := res.MIPS()
		functional := functionalMIPS(t, p)
		ratio := functional / detailed
		t.Logf("attempt %d: detailed %.1f MIPS, functional %.1f MIPS (%.1fx)", attempt+1, detailed, functional, ratio)
		if ratio > best {
			best = ratio
		}
		if best >= 5 {
			break
		}
	}
	if best < 5 {
		t.Errorf("functional fast-forward only %.2fx detailed-mode MIPS, want >=5x", best)
	}
}
