// Command coyote runs a built-in kernel (or a user-supplied bare-metal
// assembly program) on a configurable simulated system and prints the
// statistics report — the command-line face of the simulator.
//
// Examples:
//
//	coyote -kernel matmul-scalar -cores 8 -n 48
//	coyote -kernel spmv-vector-gather -cores 16 -n 256 -density 0.02 -l2 private
//	coyote -kernel stencil-vector -cores 4 -trace out   # writes out.prv/.pcf/.row
//	coyote -list
//	coyote -config system.json -kernel matmul-vector
//	coyote -run prog.s -cores 2                         # custom program
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	coyote "github.com/coyote-sim/coyote"
	"github.com/coyote-sim/coyote/internal/asm"
	"github.com/coyote-sim/coyote/internal/core"
	"github.com/coyote-sim/coyote/internal/kernels"
	"github.com/coyote-sim/coyote/internal/trace"
	"github.com/coyote-sim/coyote/internal/uncore"
)

func main() {
	var (
		kernel     = flag.String("kernel", "", "built-in kernel to run (see -list)")
		runFile    = flag.String("run", "", "assemble and run a RISC-V .s file instead of a kernel")
		list       = flag.Bool("list", false, "list built-in kernels and exit")
		cores      = flag.Int("cores", 1, "number of simulated cores")
		n          = flag.Int("n", 64, "problem size")
		density    = flag.Float64("density", 0.02, "SpMV nonzero density")
		seed       = flag.Int64("seed", 42, "data generator seed")
		interleave = flag.Int("interleave", 1, "instructions per core per orchestrator slot (Spike-style interleaving when >1)")
		workers    = flag.Int("workers", 0, "host worker goroutines stepping harts each cycle (0 = keep config value; results identical for any count)")
		l2mode     = flag.String("l2", "shared", "L2 sharing: shared | private")
		mapping    = flag.String("mapping", "set-interleave", "bank mapping: set-interleave | page-to-bank")
		nocLat     = flag.Uint64("noc-latency", 0, "override NoC crossbar latency (cycles)")
		memLat     = flag.Uint64("mem-latency", 0, "override memory latency (cycles)")
		llc        = flag.Bool("llc", false, "enable the shared last-level cache (Figure 2 third level)")
		prefetch   = flag.Int("prefetch", 0, "L2 next-line prefetch depth (0 = off)")
		rowBits    = flag.Uint("row-bits", 0, "enable DRAM row-buffer model with this row size in bits (e.g. 13 = 8 KiB rows)")
		mcpu       = flag.Bool("mcpu", false, "offload vector gathers/scatters to the memory-controller CPUs (ACME MCPU path)")
		configPath = flag.String("config", "", "JSON config file overriding the defaults")
		tracePfx   = flag.String("trace", "", "write Paraver trace files <prefix>.prv/.pcf/.row")
		uncoreDump = flag.Bool("uncore", false, "also print the per-unit uncore counters")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON")
		cacheOn    = flag.Bool("cache", false, "serve repeat runs from the content-addressed result cache (kernel runs only; implies no wall-clock/MIPS on a hit)")
		cacheDir   = flag.String("cache-dir", "", "result cache directory (default: ~/.cache/coyote)")
		cacheVer   = flag.Float64("cache-verify", 0, "fraction of cache hits to recompute and cross-check; 1 recomputes every hit and panics on divergence")
		ckptAt     = flag.Uint64("checkpoint-at", 0, "stop the run at this cycle and write a checkpoint (kernel runs only)")
		ckptPath   = flag.String("checkpoint", "", "checkpoint file to write (default <kernel>.ckpt)")
		restoreIn  = flag.String("restore", "", "restore a checkpoint file and run it to completion (ignores kernel/machine flags; the image carries them)")
		samplePer  = flag.Uint64("sample-period", 0, "enable sampled simulation with this interval period (instructions; SMARTS systematic sampling)")
		sampleWarm = flag.Uint64("sample-warmup", 2_000, "detailed warm-up instructions before each measured window")
		sampleMeas = flag.Uint64("sample-measure", 10_000, "measured window length (instructions)")
		sampleSeed = flag.Int64("sample-seed", 42, "seed placing the first measurement within the period")
	)
	flag.Parse()

	if *list {
		for _, name := range coyote.Kernels() {
			k, _ := coyote.GetKernel(name)
			fmt.Printf("%-20s %s\n", name, k.Description)
		}
		return
	}

	cfg := coyote.DefaultConfig(*cores)
	if *configPath != "" {
		raw, err := os.ReadFile(*configPath)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(raw, &cfg); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *configPath, err))
		}
		if cfg.Cores == 0 {
			cfg.Cores = *cores
		}
	}
	cfg.InterleaveQuantum = *interleave
	if *workers > 0 {
		cfg.Workers = *workers
	}
	switch *l2mode {
	case "shared":
		cfg.Uncore.L2Shared = true
	case "private":
		cfg.Uncore.L2Shared = false
	default:
		fatal(fmt.Errorf("bad -l2 %q", *l2mode))
	}
	mp, err := uncore.ParseMapping(*mapping)
	if err != nil {
		fatal(err)
	}
	cfg.Uncore.Mapping = mp
	if *nocLat != 0 {
		cfg.Uncore.NoCLatency = *nocLat
	}
	if *memLat != 0 {
		cfg.Uncore.MemLatency = *memLat
	}
	cfg.Uncore.LLCEnable = *llc
	cfg.Uncore.PrefetchDepth = *prefetch
	cfg.Uncore.MemRowBits = *rowBits
	cfg.Hart.MCPUOffload = *mcpu

	// Checkpoint, restore and sampling are dedicated drivers: they run a
	// kernel under their own control flow (stop-and-serialize, resume, or
	// the fast-forward/measure alternation) and exit here.
	if *restoreIn != "" {
		runRestore(*restoreIn, *tracePfx, *jsonOut, *uncoreDump)
		return
	}
	if *samplePer > 0 {
		if *kernel == "" {
			fatal(fmt.Errorf("-sample-period needs -kernel"))
		}
		params := kernels.Params{N: *n, Cores: cfg.Cores, Density: *density, Seed: *seed}
		sc := coyote.SampleConfig{Period: *samplePer, Warmup: *sampleWarm, Measure: *sampleMeas, Seed: *sampleSeed}
		runSample(*kernel, params, cfg, sc, *jsonOut)
		return
	}
	if *ckptAt > 0 {
		if *kernel == "" {
			fatal(fmt.Errorf("-checkpoint-at needs -kernel"))
		}
		params := kernels.Params{N: *n, Cores: cfg.Cores, Density: *density, Seed: *seed}
		path := *ckptPath
		if path == "" {
			path = *kernel + ".ckpt"
		}
		runCheckpoint(*kernel, params, cfg, *ckptAt, path, *tracePfx)
		return
	}

	// The cache applies only to kernel runs (keys content-address the
	// kernel's assembled program + params + config) and cannot serve a
	// trace: the Paraver event stream is per-run output the cache does
	// not store. Both fall back to an uncached run with a note.
	useCache := *cacheOn
	if useCache && *runFile != "" {
		fmt.Fprintln(os.Stderr, "coyote: -cache applies to -kernel runs only; running uncached")
		useCache = false
	}
	if useCache && *tracePfx != "" {
		fmt.Fprintln(os.Stderr, "coyote: -trace needs a real simulation; running uncached")
		useCache = false
	}

	var sys *core.System
	var params coyote.Params
	var res *coyote.Result
	var cacheLine string
	verify := false
	switch {
	case *runFile != "":
		src, err := os.ReadFile(*runFile)
		if err != nil {
			fatal(err)
		}
		prog, err := asm.Assemble(string(src))
		if err != nil {
			fatal(fmt.Errorf("assembling %s: %w", *runFile, err))
		}
		sys, err = coyote.NewSystem(cfg)
		if err != nil {
			fatal(err)
		}
		sys.LoadProgram(prog)
	case *kernel != "":
		params = kernels.Params{N: *n, Cores: cfg.Cores, Density: *density, Seed: *seed}
		if useCache {
			c, err := coyote.OpenResultCache(*cacheDir, 0)
			if err != nil {
				fatal(err)
			}
			c.SetVerify(*cacheVer)
			var st coyote.CacheStatus
			res, st, err = coyote.RunKernelCached(*kernel, params, cfg, c)
			if err != nil {
				fatal(err)
			}
			key, err := coyote.KeyForPoint(*kernel, params, cfg)
			if err != nil {
				fatal(err)
			}
			// Every cached result was host-verified when it was first
			// simulated; RunKernelCached verifies again on every miss.
			verify = true
			cacheLine = fmt.Sprintf("cache             %s (key %s)\n", st, key.Short())
		} else {
			sys, err = coyote.PrepareKernel(*kernel, params, cfg)
			if err != nil {
				fatal(err)
			}
			verify = true
		}
	default:
		fmt.Fprintln(os.Stderr, "need -kernel, -run or -list; see -help")
		os.Exit(2)
	}

	var tw *trace.Writer
	if sys != nil {
		if *tracePfx != "" {
			tw = trace.NewWriter(cfg.Cores)
			sys.Tracer = tw
		}
		var err error
		res, err = sys.Run()
		if err != nil {
			fatal(err)
		}
		if verify {
			if err := coyote.VerifyKernel(sys, *kernel, params); err != nil {
				fatal(fmt.Errorf("verification FAILED: %w", err))
			}
		}
	}

	// Buffer stdout and check the flush: when the report is redirected to
	// a file, a write failure must surface as a non-zero exit, not a
	// silently truncated report.
	out := bufio.NewWriter(os.Stdout)
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	} else {
		fmt.Fprint(out, res.Report())
		fmt.Fprint(out, cacheLine)
		if verify {
			fmt.Fprintln(out, "verification     OK")
		}
		for i, c := range res.Consoles {
			if c != "" {
				fmt.Fprintf(out, "console[%d]: %s", i, c)
			}
		}
	}
	if *uncoreDump {
		fmt.Fprint(out, res.UncoreReport())
	}

	if tw != nil {
		if err := writeTrace(tw, *tracePfx); err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "trace: %s.prv (%d events)\n", *tracePfx, tw.Len())
	}
	if err := out.Flush(); err != nil {
		fatal(fmt.Errorf("writing report: %w", err))
	}
}

// writeTrace writes the three Paraver files, propagating write AND close
// errors: the writers buffer internally, so a full disk can surface only
// at Close, and silently dropping that would leave a truncated trace
// behind a zero exit status.
func writeTrace(tw *trace.Writer, prefix string) error {
	for _, part := range []struct {
		ext   string
		write func(io.Writer) error
	}{
		{".prv", tw.WritePRV},
		{".pcf", tw.WritePCF},
		{".row", tw.WriteROW},
	} {
		f, err := os.Create(prefix + part.ext)
		if err != nil {
			return err
		}
		if err := part.write(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s%s: %w", prefix, part.ext, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing %s%s: %w", prefix, part.ext, err)
		}
	}
	return nil
}

// runCheckpoint simulates a kernel up to stopCycle, serializes the
// stopped machine to path and reports the simulated prefix. With -trace
// the Paraver prefix is embedded in the checkpoint file (a later
// -restore -trace continues it); no partial .prv is written here.
func runCheckpoint(kernel string, p kernels.Params, cfg coyote.Config, stopCycle uint64, path, tracePfx string) {
	cfg.CheckpointAt = stopCycle // recorded in the image; the result-cache key ignores it
	var tw *trace.Writer
	if tracePfx != "" {
		tw = trace.NewWriter(cfg.Cores)
	}
	res, stopped, err := coyote.RunToCheckpoint(kernel, p, cfg, stopCycle, path, tw)
	if err != nil {
		fatal(err)
	}
	if !stopped {
		fatal(fmt.Errorf("%s finished at cycle %d, before -checkpoint-at %d; no checkpoint written",
			kernel, res.Cycles, stopCycle))
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprint(out, res.Report())
	fmt.Fprintf(out, "checkpoint        %s (stopped at cycle %d)\n", path, stopCycle)
	if err := out.Flush(); err != nil {
		fatal(fmt.Errorf("writing report: %w", err))
	}
}

// runRestore loads a checkpoint, resumes it to completion, re-verifies
// the kernel's results against the host reference and reports the
// whole run's statistics — identical to the uninterrupted run's.
func runRestore(path, tracePfx string, jsonOut, uncoreDump bool) {
	img, err := coyote.LoadCheckpoint(path)
	if err != nil {
		fatal(err)
	}
	var tw *trace.Writer
	if tracePfx != "" {
		tw = trace.NewWriter(img.Meta.Config.Cores)
	}
	sys, err := img.Restore(tw)
	if err != nil {
		fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		fatal(err)
	}
	if img.Meta.Kernel != "" {
		if err := coyote.VerifyKernel(sys, img.Meta.Kernel, img.Meta.Params); err != nil {
			fatal(fmt.Errorf("verification FAILED: %w", err))
		}
	}
	out := bufio.NewWriter(os.Stdout)
	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	} else {
		fmt.Fprint(out, res.Report())
		fmt.Fprintf(out, "restored          %s (%s N=%d cores=%d)\n",
			path, img.Meta.Kernel, img.Meta.Params.N, img.Meta.Config.Cores)
		if img.Meta.Kernel != "" {
			fmt.Fprintln(out, "verification     OK")
		}
	}
	if uncoreDump {
		fmt.Fprint(out, res.UncoreReport())
	}
	if tw != nil {
		if err := writeTrace(tw, tracePfx); err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "trace: %s.prv (%d events)\n", tracePfx, tw.Len())
	}
	if err := out.Flush(); err != nil {
		fatal(fmt.Errorf("writing report: %w", err))
	}
}

// runSample drives SMARTS-style sampled simulation and reports the
// extrapolated cycles with their confidence interval; -json emits the
// full SampleResult (the BENCH_sample.json producer).
func runSample(kernel string, p kernels.Params, cfg coyote.Config, sc coyote.SampleConfig, jsonOut bool) {
	sr, err := coyote.SampleKernel(kernel, p, cfg, sc)
	if err != nil {
		fatal(err)
	}
	out := bufio.NewWriter(os.Stdout)
	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sr); err != nil {
			fatal(err)
		}
	} else {
		fmt.Fprint(out, sr.Report())
		fmt.Fprintln(out, "verification      OK")
	}
	if err := out.Flush(); err != nil {
		fatal(fmt.Errorf("writing report: %w", err))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coyote:", err)
	os.Exit(1)
}
