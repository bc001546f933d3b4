// Command fig3 regenerates Figure 3 of the paper: aggregate simulation
// throughput (MIPS) as a function of the simulated core count, for the
// scalar matmul and scalar SpMV kernels. It also exposes the interleaving
// ablation discussed alongside the figure (-interleave), and can emit a
// gnuplot-ready data file.
//
// Workloads weak-scale with the core count like the paper's: matmul grows
// the matrix with the cores (rows per core constant), SpMV grows the row
// count with a constant number of nonzeros per row.
//
// Every run also writes a machine-readable summary (-json, default
// BENCH_fig3.json); pointing -baseline at a previous summary records
// per-point speedups, which is how before/after numbers for simulator
// optimisations are tracked. -cpuprofile/-memprofile capture pprof
// profiles of the sweep for hot-path work.
//
// Wall-clock per point is a median: each point gets one untimed warmup
// run followed by -repeat timed runs, and the median MIPS is reported —
// best-of-N rewarded lucky scheduling, medians don't.
//
// fig3 bypasses the content-addressed result cache BY CONSTRUCTION — it
// has no -cache flag and every point calls RunKernel directly. The
// figure measures the simulator's own throughput (MIPS = instructions /
// wall-clock); a cache hit costs ~zero wall-clock, so a cached fig3
// would measure the cache, not the simulator. Keep it that way.
//
//	fig3                        # default sweep 1..128 cores, both kernels
//	fig3 -cores 1,2,4,8         # custom core counts
//	fig3 -workers 1,4           # sweep the in-cycle worker pool too
//	fig3 -interleave 1,8        # sweep Spike-style interleaving quanta
//	fig3 -engine reference      # per-instruction engine (no superblocks)
//	fig3 -repeat 7              # median-of-7 wall-clock per point
//	fig3 -baseline old.json     # record speedup vs a previous run
//	fig3 -cpuprofile cpu.pb.gz  # profile the simulator itself
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	coyote "github.com/coyote-sim/coyote"
)

type point struct {
	Kernel       string  `json:"kernel"`
	Cores        int     `json:"cores"`
	Workers      int     `json:"workers"`
	Interleave   int     `json:"interleave"`
	N            int     `json:"n"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	MIPS         float64 `json:"mips"`
	// Where the run loop's host work went: visits, lookahead_instr,
	// clock_jumps, cycles_jumped — exact counts, of the point's last run.
	coyote.HostStats
	BaselineMIPS float64 `json:"baseline_mips,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
	// HostSerialized marks a workers>1 point measured on a host that
	// cannot actually run the workers in parallel (single CPU or
	// GOMAXPROCS=1): its MIPS reflects scheduling overhead, not speedup,
	// and must not be compared against parallel-host baselines.
	HostSerialized bool `json:"host_serialized,omitempty"`
}

type summary struct {
	// Interleave holds the first swept quantum for compatibility with
	// readers of pre-sweep summaries; Interleaves is the full sweep.
	Interleave  int    `json:"interleave"`
	Interleaves []int  `json:"interleaves,omitempty"`
	Engine      string `json:"engine,omitempty"`
	Repeat      int    `json:"repeat"`
	Warmup      int    `json:"warmup"`
	Stat        string `json:"stat"`
	// HostNumCPU/HostGOMAXPROCS record the measurement machine: MIPS is
	// wall-clock-derived, so throughput points are only comparable across
	// summaries taken on comparable hosts (see HostSerialized per point).
	HostNumCPU     int     `json:"host_num_cpu"`
	HostGOMAXPROCS int     `json:"host_gomaxprocs"`
	Points         []point `json:"points"`
}

// pointKey identifies a point in the baseline map. Summaries written
// before the workers dimension existed unmarshal with Workers == 0; those
// points ran the sequential orchestrator, so they normalise to workers=1
// and old baselines keep working against new workers=1 runs. The
// interleave dimension is likewise normalised: points written before it
// existed carry the summary-level quantum, threaded in by the loader.
func pointKey(kernel string, cores, workers, interleave int) string {
	if workers <= 0 {
		workers = 1
	}
	if interleave <= 0 {
		interleave = 1
	}
	return fmt.Sprintf("%s/%d/w%d/q%d", kernel, cores, workers, interleave)
}

// medianMIPS reports the median of the timed samples (mean of the middle
// two for even counts).
func medianMIPS(samples []float64) float64 {
	sort.Float64s(samples)
	n := len(samples)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

func main() {
	var (
		coresFlag   = flag.String("cores", "1,2,4,8,16,32,64,128", "comma-separated core counts")
		workersFlag = flag.String("workers", "1", "comma-separated in-cycle worker pool sizes")
		kernFlag    = flag.String("kernels", "matmul-scalar,spmv-scalar", "kernels to sweep")
		rowsPerCore = flag.Int("rows-per-core", 1, "matmul rows per simulated core (weak scaling)")
		minN        = flag.Int("min-n", 48, "minimum matmul size")
		spmvRows    = flag.Int("spmv-rows-per-core", 256, "SpMV rows per simulated core")
		nnzPerRow   = flag.Int("nnz-per-row", 24, "SpMV nonzeros per row")
		interleave  = flag.String("interleave", "1", "comma-separated interleaving quanta (1 = Coyote default)")
		engine      = flag.String("engine", "block", "execution engine: block (superblock cache) or reference (per-instruction)")
		repeat      = flag.Int("repeat", 5, "timed runs per point; median MIPS reported")
		dataOut     = flag.String("o", "", "also write a gnuplot-style data file")
		jsonOut     = flag.String("json", "BENCH_fig3.json", "machine-readable summary file (empty to skip)")
		baseline    = flag.String("baseline", "", "previous -json summary to compute speedups against")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile after the sweep")
	)
	flag.Parse()

	var cores []int
	for _, f := range strings.Split(*coresFlag, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c <= 0 {
			fatal(fmt.Errorf("bad core count %q", f))
		}
		cores = append(cores, c)
	}
	var workerCounts []int
	for _, f := range strings.Split(*workersFlag, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w <= 0 {
			fatal(fmt.Errorf("bad worker count %q", f))
		}
		workerCounts = append(workerCounts, w)
	}
	var quanta []int
	for _, f := range strings.Split(*interleave, ",") {
		q, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || q <= 0 {
			fatal(fmt.Errorf("bad interleave quantum %q", f))
		}
		quanta = append(quanta, q)
	}
	if *engine != "block" && *engine != "reference" {
		fatal(fmt.Errorf("bad -engine %q (want block or reference)", *engine))
	}
	if *repeat < 1 {
		fatal(fmt.Errorf("-repeat must be at least 1"))
	}

	// Baseline MIPS keyed kernel/cores/workers, from a previous run's
	// -json file.
	base := map[string]float64{}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var prev summary
		if err := json.Unmarshal(data, &prev); err != nil {
			fatal(fmt.Errorf("baseline %s: %w", *baseline, err))
		}
		for _, p := range prev.Points {
			q := p.Interleave
			if q <= 0 {
				// Pre-sweep summary: every point ran at the summary-level
				// quantum (itself 0 in the oldest files, meaning 1).
				q = prev.Interleave
			}
			base[pointKey(p.Kernel, p.Cores, p.Workers, q)] = p.MIPS
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		// Stop flushes the profile into f; a failed Close means a
		// truncated profile, which must not exit 0.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(fmt.Errorf("writing CPU profile %s: %w", *cpuProfile, err))
			}
		}()
	}

	hostCPUs, hostProcs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	fmt.Printf("# Figure 3: simulation throughput vs simulated cores (interleave=%s engine=%s repeat=%d+1 warmup)\n",
		*interleave, *engine, *repeat)
	fmt.Printf("# host: %d CPUs, GOMAXPROCS=%d\n", hostCPUs, hostProcs)
	fmt.Printf("%-20s %6s %8s %6s %8s %12s %12s %10s\n",
		"kernel", "cores", "workers", "ilv", "n", "instructions", "cycles", "MIPS")
	var fileLines []string
	fileLines = append(fileLines, "# kernel cores workers interleave mips")
	sum := summary{
		Interleave:  quanta[0],
		Interleaves: quanta,
		Engine:      *engine,
		Repeat:      *repeat,
		Warmup:      1,
		Stat:        "median",

		HostNumCPU:     hostCPUs,
		HostGOMAXPROCS: hostProcs,
	}

	for _, kname := range strings.Split(*kernFlag, ",") {
		kname = strings.TrimSpace(kname)
		for _, q := range quanta {
			for _, c := range cores {
				for _, w := range workerCounts {
					p := point{Kernel: kname, Cores: c, Workers: w, Interleave: q}
					params := coyote.Params{Cores: c}
					switch {
					case strings.HasPrefix(kname, "spmv"):
						p.N = *spmvRows * c
						params.N = p.N
						params.Density = float64(*nnzPerRow) / float64(p.N)
					default:
						p.N = c * *rowsPerCore
						if p.N < *minN {
							p.N = *minN
						}
						params.N = p.N
					}
					cfg := coyote.DefaultConfig(c)
					cfg.InterleaveQuantum = q
					cfg.Workers = w
					cfg.Hart.DisableBlockCache = *engine == "reference"
					// One warmup run (page faults, branch predictors, heap
					// growth) that never contributes a sample, then -repeat
					// timed runs.
					samples := make([]float64, 0, *repeat)
					for r := 0; r < *repeat+1; r++ {
						res, err := coyote.RunKernel(kname, params, cfg)
						if err != nil {
							fatal(fmt.Errorf("%s @ %d cores, %d workers, interleave %d: %w", kname, c, w, q, err))
						}
						if r > 0 {
							samples = append(samples, res.MIPS())
						}
						p.Cycles = res.Cycles
						p.Instructions = res.Instructions
						p.HostStats = res.Host
					}
					p.MIPS = medianMIPS(samples)
					p.HostSerialized = w > 1 && (hostCPUs == 1 || hostProcs == 1)
					line := fmt.Sprintf("%-20s %6d %8d %6d %8d %12d %12d %10.3f",
						p.Kernel, p.Cores, p.Workers, p.Interleave, p.N, p.Instructions, p.Cycles, p.MIPS)
					if p.HostSerialized {
						line += "  [host-serialized]"
					}
					if b, ok := base[pointKey(p.Kernel, p.Cores, p.Workers, p.Interleave)]; ok && b > 0 {
						p.BaselineMIPS = b
						p.Speedup = p.MIPS / b
						line += fmt.Sprintf("  (%.2fx vs baseline %.3f)", p.Speedup, b)
					}
					fmt.Println(line)
					fileLines = append(fileLines,
						fmt.Sprintf("%s %d %d %d %.4f", p.Kernel, p.Cores, p.Workers, p.Interleave, p.MIPS))
					sum.Points = append(sum.Points, p)
				}
			}
		}
	}

	if *dataOut != "" {
		if err := os.WriteFile(*dataOut, []byte(strings.Join(fileLines, "\n")+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(fmt.Errorf("writing heap profile %s: %w", *memProfile, err))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fig3:", err)
	os.Exit(1)
}
